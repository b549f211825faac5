package controlha

import (
	"errors"
	"testing"
	"time"

	"rdx/internal/clock"
	"rdx/internal/core"
	"rdx/internal/rdma"
	"rdx/internal/sim"
	"rdx/internal/telemetry"
	"rdx/internal/verbchain"
)

// connectChain dials the rig's standby and returns the remote-memory view
// plus the raw MR table (NewChainOffload wants both).
func (r *hostRig) connectChain(t *testing.T) (*core.RemoteMemory, []rdma.MR) {
	t.Helper()
	conn, err := r.fab.Dial("standby")
	if err != nil {
		t.Fatal(err)
	}
	qp := rdma.NewQP(conn)
	mrs, err := qp.QueryMRs()
	if err != nil {
		t.Fatal(err)
	}
	return core.NewRemoteMemory(qp, mrs), mrs
}

// armedLease acquires a lease on the rig and routes its renewals through a
// freshly armed renew chain.
func armedLease(t *testing.T, rig *hostRig, clk clock.Clock, reg *telemetry.Registry) (*Lease, *ChainOffload) {
	t.Helper()
	mem, mrs := rig.connectChain(t)
	w, err := findMR(mrs, WitnessMRName)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLease(mem, w.Addr, 1, time.Minute, reg, clk)
	if err := l.Acquire(); err != nil {
		t.Fatal(err)
	}
	co, err := NewChainOffload(mem, mrs, 1, l.Epoch(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.ArmRenew(); err != nil {
		t.Fatalf("arm renew: %v", err)
	}
	l.UseChain(co)
	return l, co
}

// TestChainRenewExtendsLease drives a lease renewal through the pre-posted
// renew chain: one trigger verb on the wire, and the witness expiry word
// lands at now+ttl — written by the standby's NIC, not by a leader WRITE.
func TestChainRenewExtendsLease(t *testing.T) {
	rig := newHostRig(t, 0)
	reg := telemetry.NewRegistry()
	clk := sim.NewVirtualClock(time.Unix(1000, 0))
	l, _ := armedLease(t, rig, clk, reg)

	clk.Advance(30 * time.Second)
	if err := l.Renew(); err != nil {
		t.Fatalf("chained renew: %v", err)
	}
	want := uint64(clk.Now().Add(time.Minute).UnixNano())
	got, err := rig.host.arena.ReadQword(hostWitnessBase + witnessOffExpiry)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("expiry word = %d, want %d (chain did not write it)", got, want)
	}
	if n := reg.Counter("controlha.chain.renews").Value(); n != 1 {
		t.Errorf("chain.renews = %d, want 1", n)
	}
	if n := reg.Counter("controlha.lease.renewed").Value(); n != 1 {
		t.Errorf("lease.renewed = %d, want 1", n)
	}
}

// TestChainRenewRevokedBySteal pins the fencing contract: a successor's
// epoch bump revokes the resident renew chain (its witness-epoch guard
// fails), the stale leader's next renewal surfaces core.ErrFenced, and it
// deposes itself — the same outcome the unoffloaded Renew reaches by
// reading the witness.
func TestChainRenewRevokedBySteal(t *testing.T) {
	rig := newHostRig(t, 0)
	reg := telemetry.NewRegistry()
	l1, _ := armedLease(t, rig, nil, reg)

	mem2, mrs2 := rig.connectChain(t)
	w, _ := findMR(mrs2, WitnessMRName)
	l2 := NewLease(mem2, w.Addr, 2, time.Minute, reg, nil)
	if err := l2.Steal(); err != nil {
		t.Fatal(err)
	}

	err := l1.Renew()
	if !errors.Is(err, core.ErrFenced) {
		t.Fatalf("stale chained renew: %v, want core.ErrFenced", err)
	}
	if l1.Held() {
		t.Error("stale leader still believes it holds the lease")
	}
	// The guard revoked the chain before its expiry write: the successor's
	// term must not have been extended by the stale trigger.
	owner, _ := rig.host.arena.ReadQword(hostWitnessBase + witnessOffOwner)
	if owner != 2 {
		t.Fatalf("owner word = %d after stale renew, want 2", owner)
	}
}

// TestChainRenewFencedByRotation pins the other revocation edge: rotating
// the ha-chain MR (Host.FenceChains, a successor's first act against chain
// state) invalidates the stale leader's baked chain-region rkey, so its
// trigger fails typed with ErrAccess — surfaced as a deposal — and the
// resident program never runs.
func TestChainRenewFencedByRotation(t *testing.T) {
	rig := newHostRig(t, 0)
	l, _ := armedLease(t, rig, nil, nil)

	before, _ := rig.host.arena.ReadQword(hostWitnessBase + witnessOffExpiry)
	if err := rig.host.FenceChains(); err != nil {
		t.Fatal(err)
	}
	err := l.Renew()
	if !errors.Is(err, core.ErrFenced) {
		t.Fatalf("renew after chain fence: %v, want core.ErrFenced", err)
	}
	after, _ := rig.host.arena.ReadQword(hostWitnessBase + witnessOffExpiry)
	if after != before {
		t.Fatalf("fenced trigger still moved expiry %d -> %d", before, after)
	}
}

// TestChainRenewUnguardedFencedByOwnerCAS pins why an unguarded renew
// chain is still safe: Steal CASes the owner word before it bumps the epoch,
// so even with no witness-epoch guard the stale leader's resident program
// loses its leading owner CAS and aborts (ErrChainFault, surfaced as a
// deposal) before its expiry write — neither witness word moves.
func TestChainRenewUnguardedFencedByOwnerCAS(t *testing.T) {
	rig := newHostRig(t, 0)
	mem, mrs := rig.connectChain(t)
	w, err := findMR(mrs, WitnessMRName)
	if err != nil {
		t.Fatal(err)
	}
	l1 := NewLease(mem, w.Addr, 1, time.Minute, nil, nil)
	if err := l1.Acquire(); err != nil {
		t.Fatal(err)
	}
	co, err := NewChainOffload(mem, mrs, 1, l1.Epoch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := co.renewProgram(verbchain.Guard{})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.arm(prog); err != nil {
		t.Fatalf("arm unguarded renew: %v", err)
	}
	l1.UseChain(co)

	mem2, _ := rig.connectChain(t)
	if err := NewLease(mem2, w.Addr, 2, time.Minute, nil, nil).Steal(); err != nil {
		t.Fatal(err)
	}
	owner, _ := rig.host.arena.ReadQword(hostWitnessBase + witnessOffOwner)
	expiry, _ := rig.host.arena.ReadQword(hostWitnessBase + witnessOffExpiry)

	err = l1.Renew()
	if !errors.Is(err, core.ErrFenced) || !errors.Is(err, rdma.ErrChainFault) {
		t.Fatalf("stale unguarded renew: %v, want core.ErrFenced via rdma.ErrChainFault", err)
	}
	if l1.Held() {
		t.Error("stale leader still believes it holds the lease")
	}
	if now, _ := rig.host.arena.ReadQword(hostWitnessBase + witnessOffOwner); now != owner {
		t.Errorf("owner word %d -> %d after stale renew", owner, now)
	}
	if now, _ := rig.host.arena.ReadQword(hostWitnessBase + witnessOffExpiry); now != expiry {
		t.Errorf("expiry word %d -> %d after stale renew", expiry, now)
	}
}

// TestTakeOverRemoteFencesStaleAppend is the regression for remote ring
// rotation: TakeOverRemote's FIRST act rotates the ring MR's rkey via the
// wire verb (no host handle), so a deposed leader's in-flight append —
// which may already hold a tail reservation that passed the epoch check —
// dies on the revoked rkey (ErrFencedAppend) instead of committing a
// duplicate-seq entry into the successor's replayed ring.
func TestTakeOverRemoteFencesStaleAppend(t *testing.T) {
	rig := newHostRig(t, 0)
	reg := telemetry.NewRegistry()
	mem1, mrs1 := rig.connectChain(t)
	w, _ := findMR(mrs1, WitnessMRName)
	ring, _ := findMR(mrs1, RingMRName)

	l1 := NewLease(mem1, w.Addr, 1, time.Minute, reg, nil)
	if err := l1.Acquire(); err != nil {
		t.Fatal(err)
	}
	rep1 := NewReplicator(mem1, ring.Addr, 0, l1.Epoch(), reg)
	if err := rep1.Activate(); err != nil {
		t.Fatal(err)
	}
	e1 := Entry{Type: EntryValidate, Seq: 1, Fence: 1, Digest: "d1"}
	if err := rep1.Append(e1.Encode()); err != nil {
		t.Fatal(err)
	}

	// Remote takeover from a controller with no host handle: only verbs.
	cp := core.NewControlPlane()
	_, _, err := TakeOverRemote(cp, rig.hostQP(t), 2, time.Minute, nil)
	if err != nil {
		t.Fatalf("TakeOverRemote: %v", err)
	}

	// The stale leader's next append must fail on the rotated rkey — its
	// epoch-check CAS never even reads the ring — and leave the committed
	// watermark where the successor's replay put it.
	memAfter, _ := rig.connectChain(t)
	hwmBefore, err := memAfter.ReadMem(ring.Addr+ringOffHwm, 8)
	if err != nil {
		t.Fatal(err)
	}
	e2 := Entry{Type: EntryValidate, Seq: 2, Fence: 1, Digest: "d2"}
	if err := rep1.Append(e2.Encode()); !errors.Is(err, ErrFencedAppend) {
		t.Fatalf("stale append after remote rotation: %v, want ErrFencedAppend", err)
	}
	hwmAfter, err := memAfter.ReadMem(ring.Addr+ringOffHwm, 8)
	if err != nil {
		t.Fatal(err)
	}
	if hwmAfter != hwmBefore {
		t.Fatalf("stale append moved hwm %d -> %d", hwmBefore, hwmAfter)
	}
}

// TestTakeOverRemoteUnderScheduler: the remote takeover runs under the
// model checker — its ring fence is a ROTATE_MR schedule step fired on the
// host endpoint, and its lease is stamped in virtual time.
func TestTakeOverRemoteUnderScheduler(t *testing.T) {
	host, err := NewHostWith(1<<14, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	ringRKey := func() uint32 {
		mrs, err := host.Endpoint().Local().QueryMRs()
		if err != nil {
			t.Fatal(err)
		}
		mr, err := findMR(mrs, RingMRName)
		if err != nil {
			t.Fatal(err)
		}
		return mr.RKey
	}
	ringKey := ringRKey()

	s := sim.New(sim.Config{Det: true})
	net := sim.NewNet(s)
	net.AddHost("standby", host.Endpoint())
	var ldr *Leader
	s.Spawn("takeover", func() {
		cp := core.NewControlPlane()
		cp.Clock = s.Clock()
		ldr, _, err = TakeOverRemote(cp, net.QP("ctrl", "standby"), 2, time.Minute, nil)
	})
	if res := s.Run(); res.Violation != nil {
		t.Fatal(res.Violation)
	}
	if err != nil {
		t.Fatalf("TakeOverRemote: %v", err)
	}
	if ringRKey() == ringKey {
		t.Error("ring rkey not rotated")
	}
	expiry, _ := host.arena.ReadQword(hostWitnessBase + witnessOffExpiry)
	if want := s.Clock().Now().Add(time.Minute).UnixNano(); int64(expiry) != want {
		t.Errorf("lease expiry %d, want virtual now+ttl %d", expiry, want)
	}
	if !ldr.Lease.Held() {
		t.Error("successor does not hold the lease")
	}
}

// hostQP dials the standby and wraps the conn in a plain QP.
func (r *hostRig) hostQP(t *testing.T) rdma.Verbs {
	t.Helper()
	conn, err := r.fab.Dial("standby")
	if err != nil {
		t.Fatal(err)
	}
	return rdma.NewQP(conn)
}
