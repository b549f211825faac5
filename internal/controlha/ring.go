package controlha

import (
	"errors"
	"fmt"
	"sync"

	"rdx/internal/core"
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
)

// Replication ring MR layout (standby-owned). The leader pushes journal
// bytes with the same verb sequence RDX uses to inject code: FETCH_ADD
// reserves ring space (the tail), one-sided WRITEs carry the bytes, and a
// CAS commits the high-watermark — the standby trusts only bytes below the
// watermark, so a leader that dies mid-WRITE can never expose a torn
// journal suffix.
//
//	+0  magic
//	+8  tail        reservation bump pointer (FETCH_ADD), monotonic
//	+16 hwm         committed high-watermark (CAS), monotonic
//	+24 ringEpoch   fencing epoch of the leader the standby accepts
//	+32 dataCap     ring data capacity in bytes
//	+40 data[dataCap]
const (
	RingMRName     = "ha-journal"
	RingMagic      = 0x52444a52 // "RJDR"
	ringOffMagic   = 0
	ringOffTail    = 8
	ringOffHwm     = 16
	ringOffEpoch   = 24
	ringOffCap     = 32
	RingHdrSize    = 40
	DefaultRingCap = 1 << 20
)

// Replication errors.
var (
	// ErrFencedAppend reports an append attempted after the ring's epoch
	// word moved past this leader's term: a deposed leader must not grow
	// the standby's journal.
	ErrFencedAppend = errors.New("controlha: journal append fenced (ring epoch superseded)")
	// ErrSplitBrain reports a lost high-watermark CAS: some other writer
	// committed bytes into the reservation window, which only happens when
	// two controllers both believe they lead.
	ErrSplitBrain = errors.New("controlha: replication high-watermark conflict (split brain)")
	// ErrRingOverrun reports committed bytes further ahead than the ring
	// can hold — the standby lagged more than one capacity behind and the
	// oldest unread bytes were overwritten.
	ErrRingOverrun = errors.New("controlha: replication ring overrun")
)

// Replicator is the leader-side half of journal replication: it appends
// encoded entries into a standby's ring MR using only one-sided verbs.
// Appends are serialized by the owning Journal (one flight of one or more
// whole entries in the air at a time), so the tail reservation
// and the high-watermark commit advance in lockstep; a hwm CAS that still
// fails means a second writer — split brain — and is surfaced as a typed
// error rather than retried.
type Replicator struct {
	mem   *core.RemoteMemory
	base  uint64
	cap   uint64
	epoch uint64
	reg   *telemetry.Registry

	mu         sync.Mutex
	replicated uint64
}

// NewReplicator binds a replication stream onto the ring MR at base. epoch
// is the leader's fencing epoch; Activate stamps it into the ring before
// the first append.
func NewReplicator(mem *core.RemoteMemory, base, dataCap uint64, epoch uint64, reg *telemetry.Registry) *Replicator {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Replicator{mem: mem, base: base, cap: dataCap, epoch: epoch, reg: reg}
}

// Activate claims the ring for this leader's term by writing its fencing
// epoch into the ring's epoch word. Any previous leader's next append sees
// the foreign epoch and fails fenced.
func (r *Replicator) Activate() error {
	magic, err := r.mem.ReadMem(r.base+ringOffMagic, 8)
	if err != nil {
		return fmt.Errorf("controlha: ring read: %w", err)
	}
	if uint32(magic) != RingMagic {
		return fmt.Errorf("controlha: target MR is not a journal ring (magic %#x)", magic)
	}
	cap, err := r.mem.ReadMem(r.base+ringOffCap, 8)
	if err != nil {
		return fmt.Errorf("controlha: ring read: %w", err)
	}
	if r.cap == 0 {
		r.cap = cap
	} else if r.cap != cap {
		return fmt.Errorf("controlha: ring capacity mismatch: standby %d, leader %d", cap, r.cap)
	}
	if err := r.mem.WriteMem(r.base+ringOffEpoch, 8, r.epoch); err != nil {
		return fmt.Errorf("controlha: ring epoch write: %w", err)
	}
	return nil
}

// classifyAppendErr maps transport errors onto the replication taxonomy.
// An access error means the standby rotated the ring rkey out from under
// us — the RDMA-native fencing a successor applies during takeover — so it
// surfaces as ErrFencedAppend, not as an opaque wire failure.
func (r *Replicator) classifyAppendErr(stage string, err error) error {
	if errors.Is(err, rdma.ErrAccess) {
		r.reg.Counter("controlha.journal.fenced_appends").Inc()
		return fmt.Errorf("%w: ring %s revoked: %v", ErrFencedAppend, stage, err)
	}
	return fmt.Errorf("controlha: ring %s: %w", stage, err)
}

// flightBound is the size past which the owning Journal stops adding
// entries to one group-committed Append: well under the ring's capacity, so
// ErrRingOverrun below can still only be caused by a single oversized entry.
func (r *Replicator) flightBound() int {
	return int(min(r.cap/2, 256<<10))
}

// Replicated returns the bytes this term has committed to the standby. It
// counts from the term's own start, like the owning Journal's buffer — not
// from the ring's absolute offsets, which carry every earlier term's bytes.
func (r *Replicator) Replicated() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.replicated
}

// Append pushes one encoded entry, or a flight of them back to back; the
// standby sees the whole of b or none of it. Verify the ring still belongs
// to this term (a no-op CAS of the epoch word — like the wrappedSince guard
// it narrows, not closes, the deposal window; the hwm CAS below closes the
// torn-commit case), reserve [off, off+n) with FETCH_ADD on the tail, WRITE
// the bytes (split across the ring's wrap boundary), then commit by CASing
// the high-watermark from off to off+n.
func (r *Replicator) Append(b []byte) error {
	n := uint64(len(b))
	if n == 0 {
		return nil
	}
	if n > r.cap {
		return fmt.Errorf("%w: entry of %d bytes exceeds ring capacity %d", ErrRingOverrun, n, r.cap)
	}
	// Epoch verify: CAS(epoch, epoch) mutates nothing and returns the
	// current word, failing the append once a successor stamped its term.
	if prev, ok, err := r.mem.CompareAndSwapMem(r.base+ringOffEpoch, r.epoch, r.epoch); err != nil {
		return r.classifyAppendErr("epoch check", err)
	} else if !ok {
		r.reg.Counter("controlha.journal.fenced_appends").Inc()
		return fmt.Errorf("%w: ring epoch %d, leader epoch %d", ErrFencedAppend, prev, r.epoch)
	}
	off, err := r.mem.FetchAddMem(r.base+ringOffTail, n)
	if err != nil {
		return r.classifyAppendErr("reserve", err)
	}
	pos := off % r.cap
	first := n
	if pos+n > r.cap {
		first = r.cap - pos
	}
	if err := r.mem.WriteBytes(r.base+RingHdrSize+pos, b[:first]); err != nil {
		return r.classifyAppendErr("write", err)
	}
	if first < n {
		if err := r.mem.WriteBytes(r.base+RingHdrSize, b[first:]); err != nil {
			return r.classifyAppendErr("write", err)
		}
	}
	if prev, ok, err := r.mem.CompareAndSwapMem(r.base+ringOffHwm, off, off+n); err != nil {
		return r.classifyAppendErr("commit", err)
	} else if !ok {
		return fmt.Errorf("%w: hwm %d, reserved at %d", ErrSplitBrain, prev, off)
	}
	r.mu.Lock()
	r.replicated += n
	r.mu.Unlock()
	return nil
}

// Reconcile collapses a dead reservation: a predecessor that reserved
// tail space (FETCH_ADD landed) but never committed it leaves tail > hwm
// forever, and every later append would lose its hwm CAS against the
// stale base. The successor CASes the tail back down to the committed
// high-watermark. ONLY safe after the ring rkey has been rotated —
// otherwise the dead reservation's WRITE could still be in flight and
// land inside space a future append re-reserves.
func (r *Replicator) Reconcile() error {
	hwm, err := r.mem.ReadMem(r.base+ringOffHwm, 8)
	if err != nil {
		return fmt.Errorf("controlha: ring read: %w", err)
	}
	tail, err := r.mem.ReadMem(r.base+ringOffTail, 8)
	if err != nil {
		return fmt.Errorf("controlha: ring read: %w", err)
	}
	if tail == hwm {
		return nil
	}
	if prev, ok, err := r.mem.CompareAndSwapMem(r.base+ringOffTail, tail, hwm); err != nil {
		return fmt.Errorf("controlha: ring reconcile: %w", err)
	} else if !ok {
		return fmt.Errorf("%w: tail moved %d→%d during reconcile", ErrSplitBrain, tail, prev)
	}
	r.reg.Counter("controlha.journal.reconciled_reservations").Inc()
	return nil
}
