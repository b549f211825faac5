package node

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"rdx/internal/cpu"
	"rdx/internal/ebpf/maps"
	"rdx/internal/ebpf/vm"
	"rdx/internal/mem"
	"rdx/internal/native"
	"rdx/internal/rdma"
	"rdx/internal/xabi"
)

// Config configures a node.
type Config struct {
	ID    string
	Arch  native.Arch // native ISA of this node (default ArchX64)
	Cores int         // simulated cores (default 4)
	Hooks []string    // hook point names, in slot order (≤ HookSlots)
	// Latency models the RDMA fabric (nil = DefaultLatency).
	Latency *rdma.LatencyModel
	// CPKI enables the CPU cache staleness model on hook-slot reads
	// (0 = fully coherent reads, the default).
	CPKI float64
	Seed int64
}

// Node is one data-plane host.
type Node struct {
	ID    string
	Arch  native.Arch
	Arena *mem.Arena
	RNIC  *rdma.Endpoint
	Cores *cpu.Cores
	Cache *mem.Cache // non-nil when CPKI staleness is modeled

	mem    *ArenaMemory
	engine *native.Engine
	got    map[string]uint64
	hooks  map[string]int // name → slot

	resolver *arenaMapResolver
	rng      *rand.Rand
	rngMu    sync.Mutex

	progMu    sync.Mutex
	progCache map[progKey]*native.Program

	wasmMu sync.Mutex // serializes wasm filters sharing linear memory
}

type progKey struct {
	addr    mem.Addr
	version uint64
}

// New boots a node: ctx_init (arena layout) followed by ctx_register
// (MR + doorbell registration).
func New(cfg Config) (*Node, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("node: missing ID")
	}
	if cfg.Arch == 0 {
		cfg.Arch = native.ArchX64
	}
	if cfg.Cores == 0 {
		cfg.Cores = 4
	}
	if len(cfg.Hooks) > HookSlots {
		return nil, fmt.Errorf("node: %d hooks exceed %d slots", len(cfg.Hooks), HookSlots)
	}
	if cfg.Latency == nil {
		cfg.Latency = rdma.DefaultLatency()
	}

	arena := mem.NewArena(ArenaSize)
	n := &Node{
		ID:        cfg.ID,
		Arch:      cfg.Arch,
		Arena:     arena,
		RNIC:      rdma.NewEndpoint(arena, cfg.Latency),
		Cores:     cpu.New(cfg.Cores),
		mem:       &ArenaMemory{A: arena},
		got:       map[string]uint64{},
		hooks:     map[string]int{},
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D)),
		progCache: map[progKey]*native.Program{},
	}
	n.resolver = &arenaMapResolver{mem: n.mem}
	if cfg.CPKI > 0 {
		n.Cache = mem.NewCacheForCPKI(arena, cfg.CPKI, cfg.Seed+1)
	}

	if err := n.ctxInit(cfg.Hooks); err != nil {
		return nil, err
	}
	if err := n.ctxRegister(); err != nil {
		return nil, err
	}

	helperAddrs := map[uint64]xabi.HelperFn{}
	helpers := vm.DefaultHelpers()
	for id, fn := range helpers {
		addr := n.got["helper:"+xabi.HelperName(int(id))]
		helperAddrs[addr] = fn
	}
	n.engine = &native.Engine{HelperAddrs: helperAddrs}
	return n, nil
}

// ctxInit lays out the arena: control block, empty hook table, GOT.
func (n *Node) ctxInit(hooks []string) error {
	a := n.Arena
	if err := a.WriteU32(CtrlBase+CtrlOffMagic, CtrlMagic); err != nil {
		return err
	}
	a.WriteU32(CtrlBase+CtrlOffMagic+4, uint32(n.Arch))
	a.WriteQword(CtrlBase+CtrlOffEpoch, 0)
	a.WriteQword(CtrlBase+CtrlOffCodeBrk, CodeBase)
	a.WriteQword(CtrlBase+CtrlOffScratchBrk, ScratchBase)
	a.WriteQword(CtrlBase+CtrlOffMetaCount, 0)
	a.WriteQword(CtrlBase+CtrlOffBootNS, uint64(time.Now().UnixNano()))
	h := fnv.New64a()
	h.Write([]byte(n.ID))
	a.WriteQword(CtrlBase+CtrlOffNodeHash, h.Sum64())

	// Preload "empty extensions": dispatch pointer 0 = pass-through.
	for i, name := range hooks {
		n.hooks[name] = i
		base := HookAddr(i)
		for off := mem.Addr(0); off < HookSlotSize; off += 8 {
			a.WriteQword(base+off, 0)
		}
	}

	// Build the GOT: helper addresses (synthetic, unique per node) plus
	// well-known structures. Serialized into the arena so the remote
	// control plane can read it during rdx_create_codeflow.
	base := uint64(0xFEED_0000_0000)
	ids := make([]int, 0, 16)
	for id := range vm.DefaultHelpers() {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for i, id := range ids {
		n.got["helper:"+xabi.HelperName(id)] = base + uint64(i)*0x40
	}
	n.got["xstate_meta"] = MetaBase
	n.got["hook_table"] = HookBase
	n.got["ctrl_block"] = CtrlBase
	// Hook points are published as GOT symbols so a remote control plane
	// can discover attachment targets without any agent round trip.
	for name, slot := range n.hooks {
		n.got["hook:"+name] = uint64(HookAddr(slot))
	}

	return n.writeGOT()
}

// writeGOT serializes the symbol table into the GOT region:
// [count u32] then per symbol [nameLen u16][name][addr u64].
func (n *Node) writeGOT() error {
	names := make([]string, 0, len(n.got))
	for s := range n.got {
		names = append(names, s)
	}
	sort.Strings(names)
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(names)))
	for _, s := range names {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
		buf = binary.LittleEndian.AppendUint64(buf, n.got[s])
	}
	if len(buf) > GOTSize {
		return fmt.Errorf("node: GOT of %d bytes exceeds region", len(buf))
	}
	return n.Arena.Write(GOTBase, buf)
}

// ParseGOT decodes a serialized GOT region (the control-plane side).
func ParseGOT(buf []byte) (map[string]uint64, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("node: short GOT")
	}
	count := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	out := make(map[string]uint64, count)
	for i := uint32(0); i < count; i++ {
		if len(buf) < 2 {
			return nil, fmt.Errorf("node: truncated GOT entry %d", i)
		}
		nl := int(binary.LittleEndian.Uint16(buf))
		buf = buf[2:]
		if len(buf) < nl+8 {
			return nil, fmt.Errorf("node: truncated GOT entry %d", i)
		}
		name := string(buf[:nl])
		out[name] = binary.LittleEndian.Uint64(buf[nl : nl+8])
		buf = buf[nl+8:]
	}
	return out, nil
}

// ctxRegister registers MRs and the cc_event doorbell with the RNIC.
func (n *Node) ctxRegister() error {
	regs := []struct {
		name string
		addr mem.Addr
		size uint64
		perm rdma.Perm
	}{
		{MRCtrl, CtrlBase, CtrlSize + HookSize, rdma.PermAll},
		{MRGot, GOTBase, GOTSize, rdma.PermRead},
		{MRCode, CodeBase, CodeSize, rdma.PermAll},
		{MRScratch, ScratchBase, ScratchSize, rdma.PermAll},
		{MRMeta, MetaBase, MetaSize, rdma.PermAll},
	}
	for _, r := range regs {
		if _, err := n.RNIC.RegisterMR(r.name, r.addr, r.size, r.perm); err != nil {
			return err
		}
	}
	// The cc_event doorbell: a WRITE_WITH_IMM anywhere in the arena with
	// the invalidate immediate flushes the CPU cacheline at that address.
	n.RNIC.RegisterDoorbell(0, n.Arena.Size(), func(imm uint32, addr mem.Addr, _ []byte) {
		if imm == DoorbellCCInvalidate && n.Cache != nil {
			n.Cache.Invalidate(addr)
		}
	})
	return nil
}

// Serve attaches the node's RNIC to a listener (fabric or TCP).
func (n *Node) Serve(l net.Listener) error { return n.RNIC.Serve(l) }

// Close stops the RNIC and core pool.
func (n *Node) Close() {
	n.RNIC.Close()
	n.Cores.Stop()
}

// GOT returns the node's symbol table (the local view; remote callers read
// the serialized copy in the arena).
func (n *Node) GOT() map[string]uint64 {
	out := make(map[string]uint64, len(n.got))
	for k, v := range n.got {
		out[k] = v
	}
	return out
}

// HookSlot returns the slot index for a hook name.
func (n *Node) HookSlot(name string) (int, error) {
	i, ok := n.hooks[name]
	if !ok {
		return 0, fmt.Errorf("node %s: unknown hook %q", n.ID, name)
	}
	return i, nil
}

// Memory returns the node's arena as an extension-ABI memory.
func (n *Node) Memory() *ArenaMemory { return n.mem }

// Env builds the helper execution environment for one request.
func (n *Node) Env(headers map[string]string) *xabi.Env {
	return &xabi.Env{
		Mem:   n.mem,
		Maps:  n.resolver,
		NowNS: func() uint64 { return uint64(time.Now().UnixNano()) },
		RandU32: func() uint32 {
			n.rngMu.Lock()
			v := n.rng.Uint32()
			n.rngMu.Unlock()
			return v
		},
		Headers: headers,
	}
}

// readHookQword reads a hook-slot field through the CPU cache model when
// one is configured (the Fig 5 staleness path), or coherently otherwise.
func (n *Node) readHookQword(addr mem.Addr) (uint64, error) {
	if n.Cache != nil {
		return n.Cache.ReadQword(addr)
	}
	return n.Arena.ReadQword(addr)
}

// ErrDropped marks requests dropped by an extension verdict.
var ErrDropped = fmt.Errorf("node: request dropped by extension")

// ErrRuntimeLimit marks executions aborted by the per-hook instruction
// budget (§5: "enforce strict runtime limits").
var ErrRuntimeLimit = fmt.Errorf("node: extension exceeded its runtime limit")

// ExecResult reports one hook execution.
type ExecResult struct {
	Verdict uint64
	Version uint64 // extension version that processed the request (0 = none)
}

// ExecHook runs the extension attached to hook against ctxBuf (a CtxSize
// context; mutated in place). It is the data-plane fast path and performs
// no allocation beyond the engine run. Callers run it on a node core.
func (n *Node) ExecHook(hook string, ctxBuf []byte, headers map[string]string) (ExecResult, error) {
	slot, err := n.HookSlot(hook)
	if err != nil {
		return ExecResult{}, err
	}
	base := HookAddr(slot)

	ptr, err := n.readHookQword(base + HookOffDispatch)
	if err != nil {
		return ExecResult{}, err
	}
	n.Arena.FetchAdd(base+HookOffExecs, 1)
	if ptr == 0 {
		return ExecResult{Verdict: xabi.VerdictPass}, nil
	}

	blob, err := n.readBlob(ptr)
	if err != nil {
		return ExecResult{}, fmt.Errorf("node %s: hook %s: %w", n.ID, hook, err)
	}
	prog, err := n.decodeCached(ptr, blob)
	if err != nil {
		return ExecResult{}, err
	}

	// Per-hook runtime limit (§5 availability): the control plane caps
	// instructions per execution by writing the hook's fuel word remotely.
	engine := n.engine
	if fuel, ferr := n.Arena.ReadQword(base + HookOffFuel); ferr == nil && fuel != 0 {
		bounded := *n.engine
		bounded.Fuel = int(fuel)
		engine = &bounded
	}

	env := n.Env(headers)
	var verdict uint64
	switch blob.kind {
	case KindEBPF, KindUDF:
		verdict, err = engine.Run(prog, env, ctxBuf)
	case KindWasm:
		// Wasm filter ABI: ctx is staged in the filter's linear memory.
		n.wasmMu.Lock()
		if blob.memBase != 0 && len(ctxBuf) > 0 {
			if werr := n.mem.WriteBytes(blob.memBase, ctxBuf); werr != nil {
				n.wasmMu.Unlock()
				return ExecResult{}, werr
			}
		}
		verdict, err = engine.Run(prog, env, nil)
		if err == nil && blob.memBase != 0 && len(ctxBuf) > 0 {
			back, rerr := n.mem.ReadBytes(blob.memBase, len(ctxBuf))
			if rerr == nil {
				copy(ctxBuf, back)
			}
		}
		n.wasmMu.Unlock()
	default:
		err = fmt.Errorf("node %s: blob kind %d unknown", n.ID, blob.kind)
	}
	if err != nil {
		if errors.Is(err, native.ErrFuel) {
			// Runtime-limit abort: count it and fail the request safely.
			n.Arena.FetchAdd(base+HookOffAborts, 1)
			return ExecResult{Version: blob.version}, fmt.Errorf("node %s: hook %s: %w", n.ID, hook, ErrRuntimeLimit)
		}
		return ExecResult{}, err
	}
	if verdict == xabi.VerdictDrop {
		n.Arena.FetchAdd(base+HookOffDrops, 1)
		return ExecResult{Verdict: verdict, Version: blob.version}, ErrDropped
	}
	return ExecResult{Verdict: verdict, Version: blob.version}, nil
}

// WaitReady blocks while the hook's BBU buffering gate is raised, modeling
// the request buffer in front of the sandbox. Returns ctx.Err() on timeout.
func (n *Node) WaitReady(ctx context.Context, hook string) error {
	slot, err := n.HookSlot(hook)
	if err != nil {
		return err
	}
	addr := HookAddr(slot) + HookOffBuffer
	for {
		v, err := n.Arena.ReadQword(addr)
		if err != nil {
			return err
		}
		if v == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		time.Sleep(2 * time.Microsecond)
	}
}

// blobInfo is a decoded blob header.
type blobInfo struct {
	arch     native.Arch
	kind     uint8
	codeLen  uint32
	version  uint64
	memBase  uint64
	globBase uint64
}

func (n *Node) readBlob(addr mem.Addr) (blobInfo, error) {
	hdr, err := n.Arena.Read(addr, BlobHdrSize)
	if err != nil {
		return blobInfo{}, err
	}
	if binary.LittleEndian.Uint32(hdr[BlobOffMagic:]) != BlobMagic {
		return blobInfo{}, fmt.Errorf("no blob at %#x", addr)
	}
	return blobInfo{
		arch:     native.Arch(hdr[BlobOffArch]),
		kind:     hdr[BlobOffArch+1],
		codeLen:  binary.LittleEndian.Uint32(hdr[BlobOffLen:]),
		version:  binary.LittleEndian.Uint64(hdr[BlobOffVersion:]),
		memBase:  binary.LittleEndian.Uint64(hdr[BlobOffMemBase:]),
		globBase: binary.LittleEndian.Uint64(hdr[BlobOffGlobBase:]),
	}, nil
}

// decodeCached decodes a blob's code, caching by (address, version) — the
// icache analogue: first execution after injection pays the decode.
func (n *Node) decodeCached(addr mem.Addr, blob blobInfo) (*native.Program, error) {
	key := progKey{addr, blob.version}
	n.progMu.Lock()
	if p, ok := n.progCache[key]; ok {
		n.progMu.Unlock()
		return p, nil
	}
	n.progMu.Unlock()

	if blob.arch != n.Arch {
		return nil, fmt.Errorf("blob arch %v does not match node arch %v", blob.arch, n.Arch)
	}
	code, err := n.Arena.Read(addr+BlobHdrSize, int(blob.codeLen))
	if err != nil {
		return nil, err
	}
	p, err := native.DecodeProgram(blob.arch, code)
	if err != nil {
		return nil, err
	}
	n.progMu.Lock()
	if len(n.progCache) > 1024 {
		n.progCache = map[progKey]*native.Program{}
	}
	n.progCache[key] = p
	n.progMu.Unlock()
	return p, nil
}

// HookStats reports a hook's data-plane counters.
type HookStats struct {
	Execs   uint64
	Drops   uint64
	Version uint64
}

// Stats reads a hook's counters.
func (n *Node) Stats(hook string) (HookStats, error) {
	slot, err := n.HookSlot(hook)
	if err != nil {
		return HookStats{}, err
	}
	base := HookAddr(slot)
	execs, _ := n.Arena.ReadQword(base + HookOffExecs)
	drops, _ := n.Arena.ReadQword(base + HookOffDrops)
	ver, _ := n.Arena.ReadQword(base + HookOffVersion)
	return HookStats{Execs: execs, Drops: drops, Version: ver}, nil
}

// CtxTeardown detaches the extension at hook (stub 3 of §3.1): decrements
// the blob refcount and clears the dispatch pointer.
func (n *Node) CtxTeardown(hook string) error {
	slot, err := n.HookSlot(hook)
	if err != nil {
		return err
	}
	base := HookAddr(slot)
	ptr, err := n.Arena.ReadQword(base + HookOffDispatch)
	if err != nil {
		return err
	}
	if ptr != 0 {
		n.Arena.FetchAdd(ptr+BlobOffRefcnt, ^uint64(0)) // -1
	}
	return n.Arena.WriteQword(base+HookOffDispatch, 0)
}

// ArenaMemory adapts a DRAM arena to the extension ABI, with atomic CAS
// support for in-arena map locking.
type ArenaMemory struct {
	A *mem.Arena
}

var _ xabi.Memory = (*ArenaMemory)(nil)
var _ maps.AtomicMemory = (*ArenaMemory)(nil)

// ReadMem implements xabi.Memory.
func (m *ArenaMemory) ReadMem(addr uint64, size int) (uint64, error) {
	var buf [8]byte
	if err := m.A.ReadInto(addr, buf[:size]); err != nil {
		return 0, fmt.Errorf("%w: %v", xabi.ErrFault, err)
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	return v, nil
}

// WriteMem implements xabi.Memory.
func (m *ArenaMemory) WriteMem(addr uint64, size int, val uint64) error {
	var buf [8]byte
	for i := 0; i < size; i++ {
		buf[i] = byte(val >> (8 * i))
	}
	if err := m.A.Write(addr, buf[:size]); err != nil {
		return fmt.Errorf("%w: %v", xabi.ErrFault, err)
	}
	return nil
}

// ReadBytes implements xabi.Memory.
func (m *ArenaMemory) ReadBytes(addr uint64, nBytes int) ([]byte, error) {
	b, err := m.A.Read(addr, nBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", xabi.ErrFault, err)
	}
	return b, nil
}

// WriteBytes implements xabi.Memory.
func (m *ArenaMemory) WriteBytes(addr uint64, b []byte) error {
	if err := m.A.Write(addr, b); err != nil {
		return fmt.Errorf("%w: %v", xabi.ErrFault, err)
	}
	return nil
}

// CompareAndSwapMem implements maps.AtomicMemory.
func (m *ArenaMemory) CompareAndSwapMem(addr uint64, old, new uint64) (uint64, bool, error) {
	return m.A.CompareAndSwap(addr, old, new)
}

// arenaMapResolver attaches map views at arena addresses on demand.
type arenaMapResolver struct {
	mem *ArenaMemory
	mu  sync.Mutex
	att map[uint64]*maps.View
}

// ResolveMap implements xabi.MapResolver.
func (r *arenaMapResolver) ResolveMap(handle uint64) (xabi.Map, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.att == nil {
		r.att = map[uint64]*maps.View{}
	}
	if v, ok := r.att[handle]; ok {
		return v, true
	}
	v, err := maps.Attach(r.mem, handle)
	if err != nil {
		return nil, false
	}
	r.att[handle] = v
	return v, true
}

// EnterRequest admits one request into the hook's update bubble: the
// in-flight counter is raised before the BBU gate is checked, so a
// concurrent drain either counts this request or finds it parked at the
// gate — never neither. The returned leave function must be called when the
// request completes. This is the data-plane half of Big Bubble Update.
func (n *Node) EnterRequest(ctx context.Context, hook string) (leave func(), err error) {
	slot, err := n.HookSlot(hook)
	if err != nil {
		return nil, err
	}
	base := HookAddr(slot)
	for {
		if _, err := n.Arena.FetchAdd(base+HookOffInflight, 1); err != nil {
			return nil, err
		}
		gate, err := n.Arena.ReadQword(base + HookOffBuffer)
		if err != nil {
			return nil, err
		}
		if gate == 0 {
			return func() {
				n.Arena.FetchAdd(base+HookOffInflight, ^uint64(0))
			}, nil
		}
		// Gate raised: step back out and wait for the bubble to pass.
		n.Arena.FetchAdd(base+HookOffInflight, ^uint64(0))
		if err := n.WaitReady(ctx, hook); err != nil {
			return nil, err
		}
	}
}
