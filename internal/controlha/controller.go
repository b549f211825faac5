package controlha

import (
	"context"
	"fmt"
	"time"

	"rdx/internal/clock"
	"rdx/internal/core"
	"rdx/internal/rdma"
)

// Leader bundles one controller's leadership term: the lease it holds, the
// journal it appends, and the replication stream pushing that journal to
// the standby. Dropping leadership (voluntarily or by deposal) leaves the
// ControlPlane usable but fenced — every publish fails with core.ErrFenced
// until a new term is attached.
type Leader struct {
	CP      *core.ControlPlane
	Lease   *Lease
	Journal *Journal
	Rep     *Replicator
}

// findMR locates a named MR in a discovered table.
func findMR(mrs []rdma.MR, name string) (rdma.MR, error) {
	for _, mr := range mrs {
		if mr.Name == name {
			return mr, nil
		}
	}
	return rdma.MR{}, fmt.Errorf("controlha: peer exposes no %q MR", name)
}

// AttachLeader makes cp the fleet's leader: over qp (a connection to the
// standby host), acquire the CAS lease in the witness MR, stamp the
// journal ring with the new fencing epoch, and wire a replicated journal
// plus the lease fence into cp's publish paths. The returned Leader's
// lease is NOT auto-renewed; call Leader.Lease.StartRenewal for
// long-running deployments. The lease's TTL arithmetic runs on cp.Clock.
func AttachLeader(cp *core.ControlPlane, qp rdma.Verbs, id uint64, ttl time.Duration) (*Leader, error) {
	mrs, err := qp.QueryMRs()
	if err != nil {
		return nil, fmt.Errorf("controlha: MR discovery: %w", err)
	}
	mem := core.NewRemoteMemory(qp, mrs)
	witness, err := findMR(mrs, WitnessMRName)
	if err != nil {
		return nil, err
	}
	ring, err := findMR(mrs, RingMRName)
	if err != nil {
		return nil, err
	}
	lease := NewLease(mem, witness.Addr, id, ttl, cp.Registry, cp.Clock)
	if err := lease.Acquire(); err != nil {
		return nil, err
	}
	rep := NewReplicator(mem, ring.Addr, 0, lease.Epoch(), cp.Registry)
	if err := rep.Activate(); err != nil {
		return nil, err
	}
	j := NewJournal(cp.Registry)
	j.SetFenceSource(lease.Epoch)
	j.SetReplicator(rep)
	cp.SetJournal(j)
	cp.SetFence(lease.Check)
	return &Leader{CP: cp, Lease: lease, Journal: j, Rep: rep}, nil
}

// TakeOver promotes a standby: steal the lease (the epoch bump fences the
// old leader out of every dispatch CAS and ring append), pump the
// replicated journal, replay it onto cp, and install the reconstructed
// deployed-version map and rollback stacks on the re-attached CodeFlows
// (keyed by NodeKey). The new term continues journaling into the same
// ring — sequence numbers carry on from the replayed tail, so the ring
// stays replayable end to end across any number of failovers. qp must
// reach the standby's own host endpoint (a fabric loopback works: the
// coordination machinery is built from the fabric's own verbs, so the
// successor uses them even against itself).
//
// Returns the new leadership term and the replayed state; State.Open lists
// the interrupted jobs the caller should re-drive. Takeover latency lands
// in the controlha.takeover.latency histogram, measured like the lease's TTL
// on cp.Clock.
//
// The successor owns the standby host, so it fences the ring with a
// host-handle call (no verb) and takes the state the host has been folding
// as it pumped — which, unlike the ring, covers the whole history even
// after the ring has wrapped. Only the tail the final pump brings in is
// replayed inside the outage.
func TakeOver(cp *core.ControlPlane, host *Host, qp rdma.Verbs, id uint64, ttl time.Duration, flows map[string]*core.CodeFlow) (*Leader, *State, error) {
	return takeOver(cp, qp, id, ttl, flows, host.FenceRing,
		func(*core.RemoteMemory, uint64) (*State, int, error) { return host.pumpState() })
}

// TakeOverRemote is TakeOver for a controller that does not own the standby
// host's arena (rdxctl failover): the ring is fenced by the remote
// OpRotateMR verb and the journal is fetched over one-sided READs from the
// ring MR and replayed whole instead of folded as it was pumped. Requires
// an unwrapped ring; a continuously pumping standby should promote itself
// with TakeOver instead.
func TakeOverRemote(cp *core.ControlPlane, qp rdma.Verbs, id uint64, ttl time.Duration, flows map[string]*core.CodeFlow) (*Leader, *State, error) {
	return takeOver(cp, qp, id, ttl, flows,
		func() error {
			_, err := qp.RotateMRCtx(context.Background(), RingMRName)
			return err
		},
		func(mem *core.RemoteMemory, ringBase uint64) (*State, int, error) {
			view, err := FetchJournalView(mem, ringBase)
			if err != nil {
				return nil, 0, err
			}
			defer view.Release() // Replay copies everything it keeps
			st, err := Replay(view.Bytes())
			if err != nil {
				return nil, 0, fmt.Errorf("controlha: journal replay: %w", err)
			}
			return st, st.Entries, nil
		})
}

// takeOver is the one takeover body; its callers differ only in how the
// ring is fenced and where the replayed state comes from (replayed receives
// the successor's RemoteMemory and the ring MR's base, and also returns how
// many entries it had to fold inside the takeover).
//
// The FIRST act of a takeover is fenceRing: rotating the ring MR's rkey on
// the standby's endpoint. The epoch-word CAS check inside Append narrows
// but cannot close the deposal window: a stale leader that passed the check
// and already holds a tail reservation can land its WRITE and plain hwm CAS
// after the successor replayed and re-seeded sequence numbers, committing a
// duplicate-seq entry into the live ring. Rotation revokes the stale
// leader's rkey before the successor queries the fresh MR table, so no
// pre-takeover verb can mutate the ring afterwards — which is also what
// makes Reconcile (collapsing a dead reservation so the ring un-wedges)
// safe to run. The rotation happens before the lease steal: if the steal
// then fails, the old leader is fenced off its ring without a successor —
// acceptable for this administrative failover path, where the operator
// retries.
func takeOver(cp *core.ControlPlane, qp rdma.Verbs, id uint64, ttl time.Duration, flows map[string]*core.CodeFlow,
	fenceRing func() error, replayed func(mem *core.RemoteMemory, ringBase uint64) (*State, int, error)) (*Leader, *State, error) {
	clk := cp.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	start := clk.Now()
	if rotateRingOnTakeover {
		if err := fenceRing(); err != nil {
			return nil, nil, fmt.Errorf("controlha: ring fence: %w", err)
		}
	}
	mrs, err := qp.QueryMRs()
	if err != nil {
		return nil, nil, fmt.Errorf("controlha: MR discovery: %w", err)
	}
	mem := core.NewRemoteMemory(qp, mrs)
	witness, err := findMR(mrs, WitnessMRName)
	if err != nil {
		return nil, nil, err
	}
	ring, err := findMR(mrs, RingMRName)
	if err != nil {
		return nil, nil, err
	}
	lease := NewLease(mem, witness.Addr, id, ttl, cp.Registry, clk)
	if err := lease.Steal(); err != nil {
		return nil, nil, err
	}
	rep := NewReplicator(mem, ring.Addr, 0, lease.Epoch(), cp.Registry)
	if err := rep.Activate(); err != nil {
		return nil, nil, err
	}
	if rotateRingOnTakeover {
		if err := rep.Reconcile(); err != nil {
			return nil, nil, err
		}
	}
	state, folded, err := replayed(mem, ring.Addr)
	if err != nil {
		return nil, nil, err
	}
	cp.Registry.Histogram("controlha.takeover.replayed_entries").Record(int64(folded))
	state.ApplyTo(cp, flows)
	j := NewJournal(cp.Registry)
	j.SeedSeq(state.LastSeq)
	j.SetFenceSource(lease.Epoch)
	j.SetReplicator(rep)
	cp.SetJournal(j)
	cp.SetFence(lease.Check)
	cp.Registry.Histogram("controlha.takeover.latency").RecordDuration(clk.Since(start))
	return &Leader{CP: cp, Lease: lease, Journal: j, Rep: rep}, state, nil
}

// FetchJournalView reads the committed journal prefix out of a ring MR
// with one-sided READs, delivering the bytes as a zero-copy view of the
// pooled response frame when the underlying issuer supports it (see
// core.RemoteMemory.ReadBytesView). The CAS-committed high-watermark
// bounds what is trusted, and a ring that has wrapped past its capacity no
// longer holds its full history (ErrRingOverrun — a standby that pumped
// continuously still has the complete copy; this path is for late readers
// like rdxctl). The caller must Release the view; Replay copies everything
// it keeps, so releasing right after replay is safe.
func FetchJournalView(mem *core.RemoteMemory, base uint64) (rdma.FrameView, error) {
	hwm, err := mem.ReadMem(base+ringOffHwm, 8)
	if err != nil {
		return rdma.FrameView{}, fmt.Errorf("controlha: ring read: %w", err)
	}
	dataCap, err := mem.ReadMem(base+ringOffCap, 8)
	if err != nil {
		return rdma.FrameView{}, fmt.Errorf("controlha: ring read: %w", err)
	}
	if hwm > dataCap {
		return rdma.FrameView{}, fmt.Errorf("%w: %d committed bytes exceed ring capacity %d (oldest entries overwritten)",
			ErrRingOverrun, hwm, dataCap)
	}
	if hwm == 0 {
		return rdma.FrameView{}, nil
	}
	return mem.ReadBytesView(base+RingHdrSize, int(hwm))
}

// FetchJournal is FetchJournalView for callers that keep the bytes: the
// view is copied to the heap and released.
func FetchJournal(mem *core.RemoteMemory, base uint64) ([]byte, error) {
	view, err := FetchJournalView(mem, base)
	if err != nil {
		return nil, err
	}
	defer view.Release()
	if len(view.Bytes()) == 0 {
		return nil, nil
	}
	return append([]byte(nil), view.Bytes()...), nil
}

// HAStatus is a read-only snapshot of a standby host's coordination state,
// taken entirely with one-sided READs (rdxctl stats -ha).
type HAStatus struct {
	Owner     uint64    // lease owner ID, 0 = vacant
	Expiry    time.Time // lease deadline
	Epoch     uint64    // fencing epoch
	RingTail  uint64    // reserved bytes
	RingHwm   uint64    // committed bytes
	RingEpoch uint64    // epoch stamped into the ring
	RingCap   uint64    // ring data capacity
	State     *State    // replayed journal state; nil if the ring wrapped
	ReplayErr error     // why State is nil (wrap, corruption), if so
}

// Inspect reads a standby host's witness and ring over qp and replays the
// journal (when the ring still holds it whole) into a status snapshot.
func Inspect(qp rdma.Verbs) (*HAStatus, error) {
	mrs, err := qp.QueryMRs()
	if err != nil {
		return nil, fmt.Errorf("controlha: MR discovery: %w", err)
	}
	mem := core.NewRemoteMemory(qp, mrs)
	witness, err := findMR(mrs, WitnessMRName)
	if err != nil {
		return nil, err
	}
	ring, err := findMR(mrs, RingMRName)
	if err != nil {
		return nil, err
	}
	st := &HAStatus{}
	reads := []struct {
		addr uint64
		dst  *uint64
	}{
		{witness.Addr + witnessOffOwner, &st.Owner},
		{witness.Addr + witnessOffEpoch, &st.Epoch},
		{ring.Addr + ringOffTail, &st.RingTail},
		{ring.Addr + ringOffHwm, &st.RingHwm},
		{ring.Addr + ringOffEpoch, &st.RingEpoch},
		{ring.Addr + ringOffCap, &st.RingCap},
	}
	for _, r := range reads {
		v, err := mem.ReadMem(r.addr, 8)
		if err != nil {
			return nil, fmt.Errorf("controlha: status read: %w", err)
		}
		*r.dst = v
	}
	expiry, err := mem.ReadMem(witness.Addr+witnessOffExpiry, 8)
	if err != nil {
		return nil, fmt.Errorf("controlha: status read: %w", err)
	}
	if expiry != 0 {
		st.Expiry = time.Unix(0, int64(expiry))
	}
	journal, err := FetchJournal(mem, ring.Addr)
	if err != nil {
		st.ReplayErr = err
		return st, nil
	}
	st.State, st.ReplayErr = Replay(journal)
	return st, nil
}
