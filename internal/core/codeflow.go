package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rdx/internal/ebpf"
	"rdx/internal/ebpf/maps"
	"rdx/internal/ext"
	"rdx/internal/native"
	"rdx/internal/node"
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
	"rdx/internal/wasm"
)

// CodeFlow is the per-node handle of Table 1: a bound connection to one
// data-plane node carrying everything needed to manage its extensions
// remotely — the QP, the MR table, the parsed GOT snapshot, and the node's
// architecture.
type CodeFlow struct {
	cp     *ControlPlane
	qp     rdma.Verbs
	Remote *RemoteMemory
	NodeID uint64 // node identity hash from the control block
	Arch   native.Arch

	nodeKey string // NodeID formatted once, for outcomes, journal and spans

	got map[string]uint64

	mu sync.Mutex
	// history is each hook's rollback stack. Its entries that are not
	// Reclaimed are also the resident set: a repeat deployment of a digest
	// found there reduces to a commit-only transaction (the paper's
	// repeated-deploy fast path and the mechanism behind µs-scale
	// rollback/hot-patching).
	history    map[string][]Deployed
	role       Role
	codeHashes map[uint64][32]byte // blob addr → SHA-256 of published code
	// slots double-buffers blobs per hook for delta injection (slots.go).
	slots map[string]*hookSlots
	// pending holds the blobs a stage or DeployProg owns, by size: allocated
	// or claimed, not yet installed, released or aborted.
	pending map[uint64]uint64

	// pubMu serializes publish transactions on this node: the dispatch CAS
	// and the shadow bookkeeping (slots/history/version map) must land in
	// the same order, or a concurrent publish pair could leave the shadow
	// believing a blob is dead while the node still dispatches it — and a
	// later delta would overwrite live code. It also guards the code-region
	// allocator's free list and inDoubt: per blob, each hook word a flip
	// posted a CAS to but could not confirm, with the version it wrote
	// (region.go).
	pubMu   sync.Mutex
	free    []codeSpan
	inDoubt map[uint64]map[uint64]uint64
	// freshMu is read-held by each fresh allocation (region.go) until its
	// blob is pending, and write-held by a sweep as a barrier.
	freshMu   sync.RWMutex
	exhausted atomic.Bool
}

// Deployed records one published extension version on a hook.
type Deployed struct {
	Blob    uint64
	Version uint64
	Name    string
	Digest  string // content digest of the extension IR, "" when unknown
	// Reclaimed marks a version whose blob space was reclaimed — claimed
	// as a delta-staging target, or carved by an allocation under
	// pressure. Its bytes are gone from the node, so the entry can no longer
	// be re-dispatched; Rollback refuses it with a cause.
	Reclaimed bool
}

// RollbackDepth bounds every per-hook rollback stack: Rollback needs two
// entries, and a stack is copied per takeover and scanned per standby claim.
const RollbackDepth = 16

// PushDeployed pushes d onto the rollback stack h, dropping the oldest
// entry of a full stack in place. Every push — the leader's bookkeeping and
// journal replay alike — goes through it, so the two forget the same entries.
func PushDeployed(h []Deployed, d Deployed) []Deployed {
	if len(h) >= RollbackDepth {
		h = h[:copy(h, h[len(h)-RollbackDepth+1:])]
	}
	return append(h, d)
}

// CreateCodeFlow is rdx_create_codeflow: bind a handle to a remote node.
// It dials nothing itself — the caller supplies a connected transport (an
// in-process fabric pipe or a TCP connection to rdxd) — then performs the
// metadata exchange: MR discovery, control-block sanity check, and GOT
// snapshot (§3.3's "expose this global context to the RDX control plane").
func (cp *ControlPlane) CreateCodeFlow(conn net.Conn) (*CodeFlow, error) {
	return cp.CreateCodeFlowQP(rdma.NewQP(conn))
}

// CreateCodeFlowQP binds a handle over an already-built verb issuer — a raw
// *rdma.QP, or an rdma.ReconnQP for fault-tolerant deployments that survive
// transport failures mid-rollout. On error the issuer is closed.
func (cp *ControlPlane) CreateCodeFlowQP(qp rdma.Verbs) (*CodeFlow, error) {
	mrs, err := qp.QueryMRs()
	if err != nil {
		qp.Close()
		return nil, fmt.Errorf("core: MR discovery: %w", err)
	}
	remote := NewRemoteMemory(qp, mrs)

	magicArch, err := remote.ReadMem(node.CtrlBase+node.CtrlOffMagic, 8)
	if err != nil {
		qp.Close()
		return nil, fmt.Errorf("core: control block read: %w", err)
	}
	if uint32(magicArch) != node.CtrlMagic {
		qp.Close()
		return nil, fmt.Errorf("core: target is not an initialized RDX node (magic %#x)", uint32(magicArch))
	}
	arch := native.Arch(magicArch >> 32)
	nodeHash, _ := remote.ReadMem(node.CtrlBase+node.CtrlOffNodeHash, 8)
	nodeKey := fmt.Sprintf("%#x", nodeHash)

	// Wire the issuer into the control plane's registry and tracer, labeled
	// with the node's identity. Both QP and ReconnQP implement this; the
	// instruments are registry-owned and shared across QP generations, so
	// reconnects never reset or double-count.
	if ins, ok := qp.(interface {
		SetInstruments(*rdma.WireMetrics, *telemetry.TraceRecorder, string)
	}); ok {
		ins.SetInstruments(cp.wire, cp.Tracer, nodeKey)
	}

	gotRaw, err := remote.ReadBytes(node.GOTBase, node.GOTSize)
	if err != nil {
		qp.Close()
		return nil, fmt.Errorf("core: GOT read: %w", err)
	}
	got, err := node.ParseGOT(gotRaw)
	if err != nil {
		qp.Close()
		return nil, fmt.Errorf("core: GOT parse: %w", err)
	}

	return &CodeFlow{
		cp:         cp,
		qp:         qp,
		Remote:     remote,
		NodeID:     nodeHash,
		Arch:       arch,
		nodeKey:    nodeKey,
		got:        got,
		history:    map[string][]Deployed{},
		codeHashes: map[uint64][32]byte{},
		slots:      map[string]*hookSlots{},
		pending:    map[uint64]uint64{},
		inDoubt:    map[uint64]map[uint64]uint64{},
	}, nil
}

// Close releases the handle's QP.
func (cf *CodeFlow) Close() error { return cf.qp.Close() }

// remote returns the handle's remote memory bound to ctx, so a whole
// control-plane sequence (staging, publication) issues its verbs under one
// deadline and trace ID.
func (cf *CodeFlow) remote(ctx context.Context) *RemoteMemory {
	return cf.Remote.WithContext(ctx)
}

// GOT returns the snapshot of the node's symbol table.
func (cf *CodeFlow) GOT() map[string]uint64 {
	out := make(map[string]uint64, len(cf.got))
	for k, v := range cf.got {
		out[k] = v
	}
	return out
}

// HookAddr resolves a hook name through the GOT snapshot.
func (cf *CodeFlow) HookAddr(hook string) (uint64, error) {
	a, ok := cf.got["hook:"+hook]
	if !ok {
		return 0, fmt.Errorf("core: node exposes no hook %q", hook)
	}
	return a, nil
}

// NextVersion allocates a cluster-unique-per-node version number with a
// remote FETCH_ADD on the node's epoch counter.
func (cf *CodeFlow) NextVersion() (uint64, error) { return cf.nextVersion(cf.Remote) }

func (cf *CodeFlow) nextVersion(rem *RemoteMemory) (uint64, error) {
	prev, err := rem.FetchAddMem(node.CtrlBase+node.CtrlOffEpoch, 1)
	if err != nil {
		return 0, err
	}
	return prev + 1, nil
}

// AllocScratch reserves XState scratchpad space with a remote FETCH_ADD.
func (cf *CodeFlow) AllocScratch(size int) (uint64, error) {
	return cf.allocScratch(cf.Remote, size)
}

func (cf *CodeFlow) allocScratch(rem *RemoteMemory, size int) (uint64, error) {
	sz := (uint64(size) + 63) &^ 63
	prev, err := rem.FetchAddMem(node.CtrlBase+node.CtrlOffScratchBrk, sz)
	if err != nil {
		return 0, err
	}
	if prev+sz > node.ScratchBase+node.ScratchSize {
		return 0, fmt.Errorf("core: remote scratchpad exhausted")
	}
	return prev, nil
}

// ValidateCode / JITCompileCode are re-exported on the handle for API
// parity with Table 1 (they run on the control plane, bound to nothing).

// ValidateCode is rdx_validate_code.
func (cf *CodeFlow) ValidateCode(e *ext.Extension) (ext.Info, error) {
	return cf.cp.ValidateCode(e)
}

// JITCompileCode is rdx_JIT_compile_code for this node's architecture.
func (cf *CodeFlow) JITCompileCode(e *ext.Extension) (*native.Binary, error) {
	return cf.cp.JITCompileCode(e, cf.Arch)
}

// LinkCode is rdx_link_code: rewrite the binary's relocation sites with
// addresses from this node's GOT snapshot plus deployment-specific symbols
// (map handles, wasm regions).
func (cf *CodeFlow) LinkCode(bin *native.Binary, extra map[string]uint64) error {
	return native.Link(bin, func(kind native.RelocKind, sym string) (uint64, bool) {
		if a, ok := extra[sym]; ok {
			return a, true
		}
		a, ok := cf.got[sym]
		return a, ok
	})
}

// XState is a deployed remote state instance (§3.4).
type XState struct {
	Spec ebpfMapSpec
	Addr uint64
	View *maps.View // operates over RDMA through the CodeFlow's RemoteMemory
}

type ebpfMapSpec = ebpf.MapSpec

// DeployXState is rdx_deploy_xstate: allocate a chunk from the remote
// scratchpad, initialize the map header and slots remotely, and index it in
// the Meta-XState array — all with one-sided verbs.
func (cf *CodeFlow) DeployXState(spec ebpfMapSpec) (*XState, error) {
	return cf.deployXState(cf.Remote, spec)
}

func (cf *CodeFlow) deployXState(rem *RemoteMemory, spec ebpfMapSpec) (*XState, error) {
	size := maps.Size(spec)
	addr, err := cf.allocScratch(rem, int(size))
	if err != nil {
		return nil, err
	}
	view, err := maps.Create(rem, addr, spec)
	if err != nil {
		return nil, err
	}
	// Publish in the Meta-XState index: FETCH_ADD the count, WRITE the
	// entry.
	idx, err := rem.FetchAddMem(node.MetaBase, 1)
	if err != nil {
		return nil, err
	}
	if idx >= node.MetaEntries {
		return nil, fmt.Errorf("core: remote Meta-XState full")
	}
	if err := rem.WriteMem(node.MetaBase+8+idx*8, 8, addr); err != nil {
		return nil, err
	}
	return &XState{Spec: spec, Addr: addr, View: view}, nil
}

// ListXStates reads the remote Meta-XState index (the filter inspector's
// introspection path).
func (cf *CodeFlow) ListXStates() ([]uint64, error) {
	count, err := cf.Remote.ReadMem(node.MetaBase, 8)
	if err != nil {
		return nil, err
	}
	if count > node.MetaEntries {
		count = node.MetaEntries
	}
	out := make([]uint64, 0, count)
	for i := uint64(0); i < count; i++ {
		a, err := cf.Remote.ReadMem(node.MetaBase+8+i*8, 8)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// AttachXState opens a remote view on an already-deployed XState.
func (cf *CodeFlow) AttachXState(addr uint64) (*maps.View, error) {
	return maps.Attach(cf.Remote, addr)
}

// DeployParams carries per-deployment blob metadata.
type DeployParams struct {
	Kind     uint8
	MemBase  uint64
	GlobBase uint64
	// Digest is the extension IR's content digest; when set, the publish
	// is recorded in history under it, which makes it resident, and in the
	// control plane's deployed-version map.
	Digest string
}

// DeployProg is rdx_deploy_prog: push a fully linked binary into the node's
// code region and atomically publish it on the hook. It stages and
// publishes like a fleet node: the blob (header + code) and its staged
// record ride one OpBatch into allocated space, then StagedDeploy's commit
// flips the dispatch pointer with a single CAS — rdx_tx — so concurrent
// executions observe the old or the new extension, never a torn mix. It
// never claims the hook's standby.
func (cf *CodeFlow) DeployProg(bin *native.Binary, hook string, p DeployParams) (Deployed, error) {
	if !bin.Linked() {
		return Deployed{}, fmt.Errorf("core: binary %q has unresolved relocations", bin.Name)
	}
	if err := checkNames(bin.Name, hook); err != nil {
		return Deployed{}, err
	}
	hookAddr, err := cf.HookAddr(hook)
	if err != nil {
		return Deployed{}, err
	}
	version, err := cf.NextVersion()
	if err != nil {
		return Deployed{}, err
	}
	payload := append(blobHeader(bin.Arch, p, version, len(bin.Code)), bin.Code...)
	slot := &slotImage{cap: blobCap(len(payload))}
	blob, fresh, err := cf.allocFresh(cf.Remote, slot.cap)
	// pubMu is held from here to the CAS, so one fence check serves a carve
	// of reused space, which nothing may write before it, and the flip.
	fence := sync.OnceValue(cf.cp.checkFence)
	cf.pubMu.Lock()
	defer cf.pubMu.Unlock()
	if err == nil && !fresh {
		blob, err = cf.allocReused(cf.Remote, slot.cap, fence)
	}
	if err != nil {
		return Deployed{}, err
	}
	slot.blob = blob
	sd := &StagedDeploy{cf: cf, hook: hook, name: bin.Name, digest: p.Digest,
		hookAddr: hookAddr, blob: blob, version: version, slot: slot}
	if err = cf.stageFull(cf.Remote, sd, slot, payload); err == nil {
		err = sd.publish(cf.Remote, fence)
	}
	if err != nil {
		sd.Abort()
		return Deployed{}, fmt.Errorf("core: deploy of %q on %q: %w", bin.Name, hook, err)
	}
	cf.recordCodeHash(slot.blob, bin.Code)
	return sd.deployed(), nil
}

// blobHeader encodes the header that precedes codeLen bytes of code in a
// deployed or staged blob.
func blobHeader(arch native.Arch, p DeployParams, version uint64, codeLen int) []byte {
	return node.EncodeBlobHeader(arch, node.BlobParams{
		Kind: p.Kind, Version: version, MemBase: p.MemBase, GlobBase: p.GlobBase,
	}, codeLen)
}

// flip is the one dispatch-pointer commit every publish path shares — cold
// deploy, resident fast path, staged Publish and Rollback: rdx_tx's version
// write, the dispatch swap to blob, then rdx_cc_event, behind the
// leadership fence (DeployProg's may have run earlier in the same pubMu
// hold). Caller holds pubMu, so the flip and the bookkeeping the caller
// does after it land in the same order across concurrent publishes. A flip
// that fails after posting its CAS, which may have landed, leaves blob in
// doubt on the hook: no stage or carve reuses it until a later flip on the
// hook lands.
func (cf *CodeFlow) flip(rem *RemoteMemory, fence func() error, hookAddr, blob, version uint64) error {
	// A deposed controller must not flip the pointer, no matter how far
	// its stage got (see FenceCheck).
	if err := fence(); err != nil {
		return err
	}
	writes := []TxWrite{{Addr: hookAddr + node.HookOffVersion, Qword: version}}
	if posted, err := cf.txOn(rem, writes, QwordSwap{Addr: hookAddr + node.HookOffDispatch, New: blob}); err != nil {
		if posted {
			if cf.inDoubt[blob] == nil {
				cf.inDoubt[blob] = map[uint64]uint64{}
			}
			cf.inDoubt[blob][hookAddr] = version
		}
		return err
	}
	cf.landed(hookAddr, blob)
	// Expose the flipped pointer to a possibly-stale CPU cache. The swap
	// has landed, so a failed doorbell must not undo the bookkeeping.
	cf.ccEventOn(rem, hookAddr+node.HookOffDispatch)
	return nil
}

// TxWrite is one staged write of a remote transaction.
type TxWrite struct {
	Addr  uint64
	Qword uint64
	Bytes []byte // used instead of Qword when non-nil
}

// QwordSwap is the transaction's commit point: a CAS that publishes the
// staged state, swapping from whatever is there (the CAS retries with the
// observed value).
type QwordSwap struct {
	Addr uint64
	New  uint64
}

// Tx is rdx_tx: apply all staged writes, then commit with a single atomic
// qword swap. Readers polling the swapped word never observe the staged
// writes before the commit lands.
func (cf *CodeFlow) Tx(writes []TxWrite, swap QwordSwap) error {
	_, err := cf.txOn(cf.Remote, writes, swap)
	return err
}

// txOn reports whether it posted a CAS that may have landed.
func (cf *CodeFlow) txOn(rem *RemoteMemory, writes []TxWrite, swap QwordSwap) (posted bool, err error) {
	for _, w := range writes {
		if w.Bytes != nil {
			if err := rem.WriteBytes(w.Addr, w.Bytes); err != nil {
				return false, err
			}
			continue
		}
		if err := rem.WriteMem(w.Addr, 8, w.Qword); err != nil {
			return false, err
		}
	}
	for {
		cur, err := rem.ReadMem(swap.Addr, 8)
		if err != nil {
			return false, err // every CAS before this one missed
		}
		if _, ok, err := rem.CompareAndSwapMem(swap.Addr, cur, swap.New); err != nil || ok {
			return true, err
		}
	}
}

// CCEvent is rdx_cc_event: flush the data plane's CPU cacheline covering
// addr by firing the node's WRITE_WITH_IMM doorbell. The write payload is
// empty — only the immediate (and the RNIC-side handler it triggers)
// matters.
func (cf *CodeFlow) CCEvent(addr uint64) error {
	return cf.ccEventOn(cf.Remote, addr)
}

func (cf *CodeFlow) ccEventOn(rem *RemoteMemory, addr uint64) error {
	return rem.WriteImm(addr, node.DoorbellCCInvalidate, nil)
}

// LockToken identifies a mutual-exclusion acquisition.
type LockToken struct {
	addr  uint64
	token uint64
}

// MutualExcl is rdx_mutual_excl: acquire the hook's sandbox-level lock with
// remote CAS, spinning with bounded retries. The returned token must be
// passed to Unlock.
func (cf *CodeFlow) MutualExcl(hook string, maxSpins int) (LockToken, error) {
	hookAddr, err := cf.HookAddr(hook)
	if err != nil {
		return LockToken{}, err
	}
	lockAddr := hookAddr + node.HookOffLock
	token := uint64(time.Now().UnixNano()) | 1 // nonzero
	if maxSpins <= 0 {
		maxSpins = 1 << 20
	}
	for i := 0; i < maxSpins; i++ {
		_, ok, err := cf.Remote.CompareAndSwapMem(lockAddr, 0, token)
		if err != nil {
			return LockToken{}, err
		}
		if ok {
			return LockToken{addr: lockAddr, token: token}, nil
		}
	}
	return LockToken{}, fmt.Errorf("core: lock on %q contended beyond %d spins", hook, maxSpins)
}

// Unlock releases a lock taken by MutualExcl, verifying ownership.
func (cf *CodeFlow) Unlock(t LockToken) error {
	prev, ok, err := cf.Remote.CompareAndSwapMem(t.addr, t.token, 0)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("core: unlock of lock owned by %#x", prev)
	}
	return nil
}

// SetBufferGate raises or clears the hook's BBU buffering gate.
func (cf *CodeFlow) SetBufferGate(hook string, on bool) error {
	hookAddr, err := cf.HookAddr(hook)
	if err != nil {
		return err
	}
	v := uint64(0)
	if on {
		v = 1
	}
	return cf.Remote.WriteMem(hookAddr+node.HookOffBuffer, 8, v)
}

// HookStats reads a hook's data-plane counters remotely (the paper's
// "filter inspector").
func (cf *CodeFlow) HookStats(hook string) (execs, drops, version uint64, err error) {
	hookAddr, err := cf.HookAddr(hook)
	if err != nil {
		return 0, 0, 0, err
	}
	if execs, err = cf.Remote.ReadMem(hookAddr+node.HookOffExecs, 8); err != nil {
		return
	}
	if drops, err = cf.Remote.ReadMem(hookAddr+node.HookOffDrops, 8); err != nil {
		return
	}
	version, err = cf.Remote.ReadMem(hookAddr+node.HookOffVersion, 8)
	return
}

// History returns the deployment stack for a hook.
func (cf *CodeFlow) History(hook string) []Deployed {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	return append([]Deployed(nil), cf.history[hook]...)
}

// Rollback is the §4 case study: revert the hook to its previous deployed
// version with a commit-only transaction — no validation, compilation, or
// code movement, just a pointer flip in microseconds.
func (cf *CodeFlow) Rollback(hook string) (Deployed, error) {
	hookAddr, err := cf.HookAddr(hook)
	if err != nil {
		return Deployed{}, err
	}
	if err := cf.authorize(nil, hook); err != nil {
		return Deployed{}, err
	}
	// pubMu is held from the history snapshot through the dispatch CAS:
	// claimStandby and the allocator's carve also take pubMu, so the
	// previous version's blob cannot be claimed or carved — and
	// overwritten — between this read and the pointer flip.
	cf.pubMu.Lock()
	defer cf.pubMu.Unlock()
	cf.mu.Lock()
	h := cf.history[hook]
	if len(h) < 2 {
		cf.mu.Unlock()
		return Deployed{}, fmt.Errorf("core: no prior version to roll back to on %q", hook)
	}
	prev := h[len(h)-2]
	cf.mu.Unlock()
	if prev.Reclaimed {
		// The blob's bytes are gone (claimed as a delta target, or carved
		// under pressure): flipping the pointer back would dispatch
		// whatever overwrote them. Leave history intact and tell the
		// caller why; recovering the old version needs a full redeploy.
		return Deployed{}, fmt.Errorf("core: cannot roll back %q to version %d (%s): its blob was reclaimed for delta staging; redeploy it instead",
			hook, prev.Version, prev.Name)
	}
	if err := cf.flip(cf.Remote, cf.cp.checkFence, hookAddr, prev.Blob, prev.Version); err != nil {
		// Fenced or failed on the wire: the stack, the version map and the
		// journal stay as they were.
		return Deployed{}, fmt.Errorf("core: rollback of %q: %w", hook, err)
	}
	cf.mu.Lock()
	cf.history[hook] = h[:len(h)-1]
	cf.switchDispatch(hook, prev.Blob)
	cf.mu.Unlock()
	cf.cp.recordDeployed(cf.NodeKey(), hook,
		DeployedVersion{Digest: prev.Digest, Version: prev.Version, Blob: prev.Blob})
	if j := cf.cp.journal(); j != nil {
		j.JournalRollback(cf.NodeKey(), hook, prev)
	}
	return prev, nil
}

// InjectExtension runs the complete RDX pipeline for one extension on one
// hook, returning per-stage timings. On a registry hit, Validate and
// Compile cost nothing; if the identical code is already resident in the
// node's code region (repeat deployment), the whole operation reduces to a
// commit-only transaction — a version bump plus one CAS — which is the
// microsecond path of Fig 4.
func (cf *CodeFlow) InjectExtension(e *ext.Extension, hook string) (Report, error) {
	var rep Report
	start := time.Now()

	if err := cf.authorize(e, hook); err != nil {
		return rep, err
	}
	cf.cp.audit(cf.NodeID, "inject", hook, e.Name())

	digest := e.Digest()
	if handled, err := cf.tryResidentInject(e, hook, digest, start, &rep); handled {
		return rep, err
	}

	cp := cf.cp
	rep.CacheHit = cp.compiledHit(digest, cf.Arch)

	t0 := time.Now()
	if _, err := cf.ValidateCode(e); err != nil {
		return rep, err
	}
	rep.Validate = time.Since(t0)

	t1 := time.Now()
	bin, err := cf.JITCompileCode(e)
	if err != nil {
		return rep, err
	}
	rep.Compile = time.Since(t1)

	// XState + wasm region setup (remote allocations).
	t2 := time.Now()
	extra := map[string]uint64{}
	params := DeployParams{Kind: uint8(e.Kind), Digest: digest}
	if err := cf.setupState(cf.Remote, e, extra, &params); err != nil {
		return rep, err
	}
	rep.Alloc = time.Since(t2)

	t3 := time.Now()
	if err := cf.LinkCode(bin, extra); err != nil {
		return rep, err
	}
	rep.Link = time.Since(t3)

	t4 := time.Now()
	d, err := cf.DeployProg(bin, hook, params)
	if err != nil {
		return rep, err
	}
	rep.Write = time.Since(t4) // includes the commit CAS
	rep.Commit = 0
	rep.Version = d.Version
	rep.Blob = d.Blob
	rep.Total = time.Since(start)
	// DeployProg's publish recorded history and the deployed-version map
	// via params.Digest.
	return rep, nil
}

// tryResidentInject attempts the repeat-deployment fast path: if the
// extension's digest is resident — in a live entry of this node's history —
// the inject reduces to publishing a commit-only StagedDeploy of that blob.
// The lookup and the publish happen under ONE pubMu hold: claimStandby and
// the allocator's carve also take pubMu and tombstone the history entries
// of every blob they reuse before releasing it, so a blob found here cannot
// be overwritten before the CAS dispatches it. Returns handled=false when
// the digest is not resident and the caller must run the full pipeline.
func (cf *CodeFlow) tryResidentInject(e *ext.Extension, hook string, digest string, start time.Time, rep *Report) (handled bool, err error) {
	cf.pubMu.Lock()
	defer cf.pubMu.Unlock()
	blob, isResident := cf.resident(digest)
	if !isResident {
		return false, nil
	}
	hookAddr, err := cf.HookAddr(hook)
	if err != nil {
		return true, err
	}
	version, err := cf.NextVersion()
	if err != nil {
		return true, err
	}
	t0 := time.Now()
	sd := &StagedDeploy{cf: cf, hook: hook, name: e.Name(), digest: digest,
		hookAddr: hookAddr, blob: blob, version: version}
	if err := sd.publish(cf.Remote, cf.cp.checkFence); err != nil {
		return true, err
	}
	rep.Commit = time.Since(t0)
	rep.CacheHit = true
	rep.Version = version
	rep.Blob = blob
	rep.Total = time.Since(start)
	return true, nil
}

// resident finds digest's blob in a live history entry of any hook on
// this node: at most hooks × RollbackDepth entries.
func (cf *CodeFlow) resident(digest string) (uint64, bool) {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	for _, hist := range cf.history {
		for i := len(hist) - 1; i >= 0; i-- {
			if d := hist[i]; d.Digest == digest && !d.Reclaimed {
				return d.Blob, true
			}
		}
	}
	return 0, false
}

// setupState provisions remote XState maps and wasm regions for one
// deployment and records link symbols. All verbs issue on rem, so callers
// holding a ctx-bound view get tracing and cancellation here too.
func (cf *CodeFlow) setupState(rem *RemoteMemory, e *ext.Extension, extra map[string]uint64, params *DeployParams) error {
	for _, spec := range e.MapSpecs() {
		xs, err := cf.deployXState(rem, spec)
		if err != nil {
			return err
		}
		extra["map:"+spec.Name] = xs.Addr
	}
	memBytes, globals := e.WasmRegions()
	if memBytes > 0 {
		addr, err := cf.allocScratch(rem, memBytes)
		if err != nil {
			return err
		}
		// Zero the first page region lazily: scratchpad starts zeroed and
		// the bump allocator never reuses, so no remote memset is needed.
		extra[wasm.SymMemory] = addr
		params.MemBase = addr
	}
	if globals > 0 {
		addr, err := cf.allocScratch(rem, 8*globals)
		if err != nil {
			return err
		}
		inits := e.WasmGlobalInits()
		buf := make([]byte, 8*len(inits))
		for i, v := range inits {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		if err := rem.WriteBytes(addr, buf); err != nil {
			return err
		}
		extra[wasm.SymGlobals] = addr
		params.GlobBase = addr
	}
	return nil
}
