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

// AttachLeader makes cp the fleet's leader over qp (a connection to the
// standby host). It is TakeOverRemote in every respect but two: it claims
// the lease with Lease.Acquire, so a live foreign lease fails with
// ErrLeaseHeld before anything is fenced, and it passes no flows, so the
// replayed state restores only cp's deployed-version map. Like every term
// start it fences the ring, collapses a predecessor's dead reservation and
// continues the ring's sequence; a wrapped ring fails with ErrRingOverrun.
// The returned Leader's lease is NOT auto-renewed: a long-running leader
// calls Lease.Renew within every TTL, or routes renewals through a chain
// (Lease.UseChain). The lease's TTL arithmetic runs on cp.Clock.
func AttachLeader(cp *core.ControlPlane, qp rdma.Verbs, id uint64, ttl time.Duration) (*Leader, error) {
	ldr, _, err := takeOver(cp, qp, id, ttl, nil, (*Lease).Acquire, rotateRemote(qp), replayRemote)
	return ldr, err
}

// TakeOver promotes a standby: steal the lease (the epoch bump fences the
// old leader out of every dispatch CAS and ring append), pump the
// replicated journal, replay it onto cp, and install the reconstructed
// deployed-version map and rollback stacks on the re-attached CodeFlows
// (keyed by NodeKey). The new term continues journaling into the same
// ring — sequence numbers carry on from the replayed tail, so the ring
// stays replayable end to end across any number of failovers. qp must
// reach the standby's own host endpoint directly (a fabric loopback works:
// the coordination machinery is built from the fabric's own verbs, so the
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
	return takeOver(cp, qp, id, ttl, flows, (*Lease).Steal, host.FenceRing,
		func(*core.RemoteMemory, uint64) (*State, int, error) { return host.pumpState() })
}

// TakeOverRemote is TakeOver for a controller that does not own the standby
// host's arena (rdxctl failover): the ring is fenced by the remote
// OpRotateMR verb and the journal is fetched with one READ of the ring MR
// and replayed whole instead of folded as it was pumped. Requires an
// unwrapped ring; a continuously pumping standby should promote itself
// with TakeOver instead.
func TakeOverRemote(cp *core.ControlPlane, qp rdma.Verbs, id uint64, ttl time.Duration, flows map[string]*core.CodeFlow) (*Leader, *State, error) {
	return takeOver(cp, qp, id, ttl, flows, (*Lease).Steal, rotateRemote(qp), replayRemote)
}

// rotateRemote fences the ring with the remote OpRotateMR verb, returning
// the rkey qp now reaches the ring with.
func rotateRemote(qp rdma.Verbs) func() (uint32, error) {
	return func() (uint32, error) { return qp.RotateMRCtx(context.Background(), RingMRName) }
}

// replayRemote fetches the ring's committed journal and replays it whole;
// every entry counts as folded inside the term start.
func replayRemote(mem *core.RemoteMemory, ringBase uint64) (*State, int, error) {
	journal, err := FetchJournal(mem, ringBase)
	if err != nil {
		return nil, 0, err
	}
	st, err := Replay(journal)
	if err != nil {
		return nil, 0, fmt.Errorf("controlha: journal replay: %w", err)
	}
	return st, st.Entries, nil
}

// takeOver is the one body that starts a leadership term. Its three
// callers differ only in how the lease is claimed (Acquire or Steal), how
// the ring is fenced (fenceRing returns the ring's rkey after rotation),
// and where the replayed state comes from (replayed receives the
// successor's RemoteMemory and the ring MR's base, and also returns how
// many entries it had to fold inside the term start). The order is
// discover, claim, fence, activate, reconcile, replay, apply, seed.
//
// The lease comes first, so a refused claim fences nothing: a live leader
// keeps its ring. The ring fence then rotates the ring MR's rkey on the
// standby's endpoint. The epoch-word CAS check inside Append narrows but
// cannot close the deposal window: a stale leader that passed the check
// and already holds a tail reservation can land its WRITE and plain hwm
// CAS after the successor replayed and re-seeded sequence numbers,
// committing a duplicate-seq entry into the live ring. Rotation revokes
// the stale leader's rkey before the successor activates, reconciles or
// replays, so no pre-rotation verb can mutate the ring afterwards — which
// is also what makes Reconcile (collapsing a dead reservation so the ring
// un-wedges) safe to run. An append the stale leader commits between the
// claim and the rotation lands before the replay and is replayed.
func takeOver(cp *core.ControlPlane, qp rdma.Verbs, id uint64, ttl time.Duration, flows map[string]*core.CodeFlow,
	claim func(*Lease) error, fenceRing func() (uint32, error),
	replayed func(mem *core.RemoteMemory, ringBase uint64) (*State, int, error)) (*Leader, *State, error) {
	clk := cp.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	start := clk.Now()
	mrs, err := qp.QueryMRs()
	if err != nil {
		return nil, nil, fmt.Errorf("controlha: MR discovery: %w", err)
	}
	witness, err := findMR(mrs, WitnessMRName)
	if err != nil {
		return nil, nil, err
	}
	ring, err := findMR(mrs, RingMRName)
	if err != nil {
		return nil, nil, err
	}
	mem := core.NewRemoteMemory(qp, mrs)
	lease := NewLease(mem, witness.Addr, id, ttl, cp.Registry, clk)
	if err := claim(lease); err != nil {
		return nil, nil, err
	}
	if rotateRingOnTakeover {
		rkey, err := fenceRing()
		if err != nil {
			return nil, nil, fmt.Errorf("controlha: ring fence: %w", err)
		}
		// The rotated ring answers only to its new rkey; the witness keeps
		// the one discovered above.
		for i := range mrs {
			if mrs[i].Name == RingMRName {
				mrs[i].RKey = rkey
			}
		}
		mem = core.NewRemoteMemory(qp, mrs)
		lease.mem = mem
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

// FetchJournal reads the committed journal prefix out of a ring MR with
// one-sided READs: the two header words, then one copying READ of the
// committed bytes. The CAS-committed high-watermark bounds what is trusted,
// and a ring that has wrapped past its capacity no longer holds its full
// history (ErrRingOverrun — a standby that pumped continuously still has the
// complete copy; this path is for late readers like rdxctl).
func FetchJournal(mem *core.RemoteMemory, base uint64) ([]byte, error) {
	hwm, err := mem.ReadMem(base+ringOffHwm, 8)
	if err != nil {
		return nil, fmt.Errorf("controlha: ring read: %w", err)
	}
	dataCap, err := mem.ReadMem(base+ringOffCap, 8)
	if err != nil {
		return nil, fmt.Errorf("controlha: ring read: %w", err)
	}
	if hwm > dataCap {
		return nil, fmt.Errorf("%w: %d committed bytes exceed ring capacity %d (oldest entries overwritten)",
			ErrRingOverrun, hwm, dataCap)
	}
	if hwm == 0 {
		return nil, nil
	}
	return mem.ReadBytes(base+RingHdrSize, int(hwm))
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
	st.State, _, st.ReplayErr = replayRemote(mem, ring.Addr)
	return st, nil
}
