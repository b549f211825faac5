package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sync"
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

	got map[string]uint64

	mu         sync.Mutex
	role       Role
	history    map[string][]Deployed // hook → past deployments (rollback stack)
	codeHashes map[uint64]string     // blob addr → SHA-256 of published code
	// resident caches deployed blob addresses by extension digest: a
	// repeat deployment of code already resident on the node reduces to a
	// commit-only transaction (the paper's repeated-deploy fast path and
	// the mechanism behind µs-scale rollback/hot-patching).
	resident map[string]residentBlob
	// slots double-buffers blobs per hook for delta injection (slots.go);
	// dispatch shadows each hook's currently dispatched blob so a standby
	// is never delta-overwritten while live on another hook.
	slots    map[string]*hookSlots
	dispatch map[string]uint64
	// wrapEpoch counts code-ring wraps (allocCode). A stage records the
	// epoch when it claims or allocates blob space and re-checks it before
	// trusting the address again: a wrap in between means fresh
	// allocations may already overlap that range, so the write must not be
	// trusted and the publish must not dispatch it.
	wrapEpoch uint64

	// pubMu serializes publish transactions on this node: the dispatch CAS
	// and the shadow bookkeeping (slots/dispatch/version map) must land in
	// the same order, or a concurrent publish pair could leave the shadow
	// believing a blob is dead while the node still dispatches it — and a
	// later delta would overwrite live code.
	pubMu sync.Mutex
}

type residentBlob struct {
	blob uint64
	kind uint8
}

// Deployed records one published extension version on a hook.
type Deployed struct {
	Blob    uint64
	Version uint64
	Name    string
	Digest  string // content digest of the extension IR, "" when unknown
	// Reclaimed marks a version whose blob space was reclaimed — claimed
	// as a delta-staging target, or invalidated by a code-ring wrap. Its
	// bytes are gone from the node, so the entry can no longer be
	// re-dispatched; Rollback refuses it with a cause.
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

	// Wire the issuer into the control plane's registry and tracer, labeled
	// with the node's identity. Both QP and ReconnQP implement this; the
	// instruments are registry-owned and shared across QP generations, so
	// reconnects never reset or double-count.
	if ins, ok := qp.(interface {
		SetInstruments(*rdma.WireMetrics, *telemetry.TraceRecorder, string)
	}); ok {
		ins.SetInstruments(cp.wire, cp.Tracer, fmt.Sprintf("%#x", nodeHash))
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
		got:        got,
		history:    map[string][]Deployed{},
		resident:   map[string]residentBlob{},
		codeHashes: map[uint64]string{},
		slots:      map[string]*hookSlots{},
		dispatch:   map[string]uint64{},
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

// ErrRingWrapped reports that the code ring wrapped between a stage's
// allocation (or standby claim) and the moment the blob address was about
// to be trusted — written into or dispatched. Post-wrap allocations may
// overlap the old range, so the stage must be re-driven from a fresh
// allocation; the error is classified retryable (Retryable) so the
// scheduler does exactly that.
var ErrRingWrapped = errors.New("core: code ring wrapped during staging")

// wrappedSince reports whether the code ring wrapped after epoch was
// observed — i.e. whether blob addresses reserved back then may since have
// been handed out again.
func (cf *CodeFlow) wrappedSince(epoch uint64) bool {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	return cf.wrapEpoch != epoch
}

// AllocCode reserves code-region space with a remote FETCH_ADD. Like the
// local allocator, the region is a ring: exhaustion wraps the bump pointer
// back to the base (remote CAS), reclaiming the oldest dead blobs.
func (cf *CodeFlow) AllocCode(size int) (uint64, error) {
	addr, _, err := cf.allocCode(cf.Remote, size)
	return addr, err
}

// allocCode returns the reserved address plus the wrap epoch sampled
// before the reservation: if cf.wrapEpoch still equals it later, no wrap
// has reclaimed the address in between. Sampling before the FETCH_ADD is
// deliberately conservative — a wrap racing the reservation shows up as an
// epoch change even when the address is actually post-wrap and fine,
// costing at worst a spurious retry.
func (cf *CodeFlow) allocCode(rem *RemoteMemory, size int) (uint64, uint64, error) {
	sz := uint64((size + 7) &^ 7)
	if sz > node.CodeSize/2 {
		return 0, 0, fmt.Errorf("core: blob of %d bytes exceeds half the code region", size)
	}
	for {
		cf.mu.Lock()
		epoch := cf.wrapEpoch
		cf.mu.Unlock()
		prev, err := rem.FetchAddMem(node.CtrlBase+node.CtrlOffCodeBrk, sz)
		if err != nil {
			return 0, 0, err
		}
		if prev+sz <= node.CodeBase+node.CodeSize {
			return prev, epoch, nil
		}
		if _, _, err := rem.CompareAndSwapMem(node.CtrlBase+node.CtrlOffCodeBrk, prev+sz, node.CodeBase); err != nil {
			return 0, 0, err
		}
		// The wrap may reclaim space under previously deployed blobs:
		// forget them so the redeploy fast path never flips a hook to
		// potentially overwritten code, drop the slot shadows so delta
		// staging never diffs against a possibly-reclaimed standby,
		// tombstone history so rollback never re-dispatches a reclaimed
		// address, and bump the epoch so in-flight stages that claimed or
		// allocated before the wrap fail instead of publishing into the
		// reclaimed range.
		cf.mu.Lock()
		cf.resident = map[string]residentBlob{}
		cf.slots = map[string]*hookSlots{}
		for _, hist := range cf.history {
			for i := range hist {
				hist[i].Reclaimed = true
			}
		}
		cf.wrapEpoch++
		wrapped := cf.wrapEpoch
		cf.mu.Unlock()
		if j := cf.cp.journal(); j != nil {
			j.JournalReclaim(cf.NodeKey(), wrapped)
		}
	}
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
	// entry, refresh the control-block mirror.
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
	rem.WriteMem(node.CtrlBase+node.CtrlOffMetaCount, 8, idx+1)
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
	// is recorded in the resident index and the control plane's
	// deployed-version map.
	Digest string
}

// DeployProg is rdx_deploy_prog: push a fully linked binary into the node's
// code region and atomically publish it on the hook. The publish step is an
// rdx_tx: the blob (header + code) is written in full before a single CAS
// flips the dispatch pointer, so concurrent executions observe the old or
// the new extension, never a torn mix.
func (cf *CodeFlow) DeployProg(bin *native.Binary, hook string, p DeployParams) (Deployed, error) {
	if !bin.Linked() {
		return Deployed{}, fmt.Errorf("core: binary %q has unresolved relocations", bin.Name)
	}
	hookAddr, err := cf.HookAddr(hook)
	if err != nil {
		return Deployed{}, err
	}
	// A concurrent stage can wrap the code ring between this deploy's
	// allocation and its publish, reclaiming the blob's range; the whole
	// sequence is re-driveable, so retry from a fresh (post-wrap)
	// allocation rather than surfacing the transient.
	var d Deployed
	for attempt := 0; ; attempt++ {
		d, err = cf.deployProgOnce(bin, hook, hookAddr, p)
		if err == nil || !errors.Is(err, ErrRingWrapped) || attempt >= 2 {
			return d, err
		}
	}
}

func (cf *CodeFlow) deployProgOnce(bin *native.Binary, hook string, hookAddr uint64, p DeployParams) (Deployed, error) {
	version, err := cf.NextVersion()
	if err != nil {
		return Deployed{}, err
	}
	blob, epoch, err := cf.allocCode(cf.Remote, node.BlobHdrSize+len(bin.Code))
	if err != nil {
		return Deployed{}, err
	}
	hdr := node.EncodeBlobHeader(bin.Arch, node.BlobParams{
		Kind: p.Kind, Version: version, MemBase: p.MemBase, GlobBase: p.GlobBase,
	}, len(bin.Code))
	payload := append(hdr, bin.Code...)
	if err := cf.Remote.WriteBytes(blob, payload); err != nil {
		return Deployed{}, err
	}

	cf.pubMu.Lock()
	defer cf.pubMu.Unlock()
	// The blob write was a remote round trip: if the ring wrapped under
	// it, the address may already belong to a fresh allocation, and the
	// CAS below would dispatch someone else's bytes.
	if cf.wrappedSince(epoch) {
		return Deployed{}, fmt.Errorf("core: deploy of %q on %q: %w", bin.Name, hook, ErrRingWrapped)
	}
	// Leadership fence: a deposed controller must not flip the dispatch
	// pointer, no matter how far the stage got (see FenceCheck).
	if err := cf.cp.checkFence(); err != nil {
		return Deployed{}, fmt.Errorf("core: deploy of %q on %q: %w", bin.Name, hook, err)
	}
	if err := cf.Tx(
		[]TxWrite{
			{Addr: hookAddr + node.HookOffStaged, Qword: blob},
			{Addr: hookAddr + node.HookOffVersion, Qword: version},
		},
		QwordSwap{Addr: hookAddr + node.HookOffDispatch, New: blob},
	); err != nil {
		return Deployed{}, err
	}
	// Expose the flipped pointer to a possibly-stale CPU cache.
	cf.CCEvent(hookAddr + node.HookOffDispatch)

	codeSum := sha256.Sum256(bin.Code)
	cf.mu.Lock()
	cf.codeHashes[blob] = hex.EncodeToString(codeSum[:])
	cf.mu.Unlock()

	d := Deployed{Blob: blob, Version: version, Name: bin.Name, Digest: p.Digest}
	cf.installPublished(hook, &slotImage{
		blob:   blob,
		cap:    (uint64(len(payload)) + 7) &^ 7,
		image:  payload,
		digest: p.Digest,
		kind:   p.Kind,
	}, d)
	return d, nil
}

// TxWrite is one staged write of a remote transaction.
type TxWrite struct {
	Addr  uint64
	Qword uint64
	Bytes []byte // used instead of Qword when non-nil
}

// QwordSwap is the transaction's commit point: a CAS that publishes the
// staged state. Old of zero means "swap from whatever is there" (the CAS
// retries with the observed value).
type QwordSwap struct {
	Addr    uint64
	Old     uint64
	New     uint64
	Stealth bool // skip the swap (write-only transactions)
}

// Tx is rdx_tx: apply all staged writes, then commit with a single atomic
// qword swap. Readers polling the swapped word never observe the staged
// writes before the commit lands.
func (cf *CodeFlow) Tx(writes []TxWrite, swap QwordSwap) error {
	return cf.txOn(cf.Remote, writes, swap)
}

func (cf *CodeFlow) txOn(rem *RemoteMemory, writes []TxWrite, swap QwordSwap) error {
	for _, w := range writes {
		if w.Bytes != nil {
			if err := rem.WriteBytes(w.Addr, w.Bytes); err != nil {
				return err
			}
			continue
		}
		if err := rem.WriteMem(w.Addr, 8, w.Qword); err != nil {
			return err
		}
	}
	if swap.Stealth {
		return nil
	}
	if swap.Old != 0 {
		prev, ok, err := rem.CompareAndSwapMem(swap.Addr, swap.Old, swap.New)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("core: tx commit conflict: expected %#x, found %#x", swap.Old, prev)
		}
		return nil
	}
	for {
		cur, err := rem.ReadMem(swap.Addr, 8)
		if err != nil {
			return err
		}
		if _, ok, err := rem.CompareAndSwapMem(swap.Addr, cur, swap.New); err != nil {
			return err
		} else if ok {
			return nil
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
	// pubMu is held from the history snapshot through the dispatch CAS:
	// claimStandby also takes pubMu, so the previous version's blob cannot
	// be claimed — and delta-overwritten — between this read and the
	// pointer flip.
	cf.pubMu.Lock()
	defer cf.pubMu.Unlock()
	// Check the fence before touching the rollback stack: a deposed
	// controller must neither flip the pointer nor mutate its bookkeeping.
	if err := cf.cp.checkFence(); err != nil {
		return Deployed{}, fmt.Errorf("core: rollback of %q: %w", hook, err)
	}
	cf.mu.Lock()
	h := cf.history[hook]
	if len(h) < 2 {
		cf.mu.Unlock()
		return Deployed{}, fmt.Errorf("core: no prior version to roll back to on %q", hook)
	}
	prev := h[len(h)-2]
	if prev.Reclaimed {
		// The blob's bytes are gone (claimed as a delta target, or the
		// ring wrapped past it): flipping the pointer back would dispatch
		// whatever overwrote them. Leave history intact and tell the
		// caller why; recovering the old version needs a full redeploy.
		cf.mu.Unlock()
		return Deployed{}, fmt.Errorf("core: cannot roll back %q to version %d (%s): its blob was reclaimed for delta staging; redeploy it instead",
			hook, prev.Version, prev.Name)
	}
	cf.history[hook] = h[:len(h)-1]
	cf.mu.Unlock()

	if err := cf.Tx(
		[]TxWrite{{Addr: hookAddr + node.HookOffVersion, Qword: prev.Version}},
		QwordSwap{Addr: hookAddr + node.HookOffDispatch, New: prev.Blob},
	); err != nil {
		return Deployed{}, err
	}
	cf.CCEvent(hookAddr + node.HookOffDispatch)
	cf.mu.Lock()
	cf.switchDispatch(hook, prev.Blob)
	cf.mu.Unlock()
	// Rolling back intentionally regresses the version: force the
	// deployed-version map past its last-writer-wins guard.
	cf.cp.recordDeployed(cf.NodeKey(), hook,
		DeployedVersion{Digest: prev.Digest, Version: prev.Version, Blob: prev.Blob}, true)
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
	if !cf.cp.DisableCache {
		if handled, err := cf.tryResidentInject(e, hook, digest, start, &rep); handled {
			return rep, err
		}
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
	// DeployProg's installPublished recorded the resident index entry and
	// the deployed-version map via params.Digest.
	return rep, nil
}

// tryResidentInject attempts the repeat-deployment fast path: if the
// extension's digest is already resident in the node's code region, the
// inject reduces to a commit-only transaction. The resident lookup and the
// dispatch CAS happen under ONE pubMu hold: claimStandby also takes pubMu
// and purges the resident index before releasing it, so a blob observed
// here cannot be claimed — and delta-overwritten — before the CAS
// dispatches it. Returns handled=false when the digest is not resident (or
// a concurrent ring wrap invalidated the index mid-path) and the caller
// must run the full pipeline.
func (cf *CodeFlow) tryResidentInject(e *ext.Extension, hook string, digest string, start time.Time, rep *Report) (handled bool, err error) {
	cf.pubMu.Lock()
	defer cf.pubMu.Unlock()
	cf.mu.Lock()
	res, isResident := cf.resident[digest]
	epoch := cf.wrapEpoch
	cf.mu.Unlock()
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
	// The version FETCH_ADD was a remote round trip; a concurrent stage
	// may have wrapped the code ring under it, reclaiming res.blob. The
	// wrap cleared the resident index, so fall back to the full pipeline.
	if cf.wrappedSince(epoch) {
		return false, nil
	}
	// Commit-only path or not, the fast-path CAS is still a dispatch flip:
	// a deposed controller fails here instead of republishing stale code.
	if err := cf.cp.checkFence(); err != nil {
		return true, fmt.Errorf("core: inject of %q on %q: %w", e.Name(), hook, err)
	}
	t0 := time.Now()
	if err := cf.Tx(
		[]TxWrite{{Addr: hookAddr + node.HookOffVersion, Qword: version}},
		QwordSwap{Addr: hookAddr + node.HookOffDispatch, New: res.blob},
	); err != nil {
		return true, err
	}
	cf.CCEvent(hookAddr + node.HookOffDispatch)
	rep.Commit = time.Since(t0)
	rep.CacheHit = true
	rep.Version = version
	rep.Blob = res.blob
	rep.Total = time.Since(start)
	cf.mu.Lock()
	cf.history[hook] = PushDeployed(cf.history[hook], Deployed{Blob: res.blob, Version: version, Name: e.Name(), Digest: digest})
	cf.switchDispatch(hook, res.blob)
	cf.mu.Unlock()
	cf.cp.recordDeployed(cf.NodeKey(), hook,
		DeployedVersion{Digest: digest, Version: version, Blob: res.blob}, false)
	if j := cf.cp.journal(); j != nil {
		j.JournalPublish(cf.NodeKey(), hook,
			Deployed{Blob: res.blob, Version: version, Name: e.Name(), Digest: digest})
	}
	return true, nil
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
