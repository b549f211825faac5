package controlha_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"rdx/internal/cluster"
	"rdx/internal/controlha"
	"rdx/internal/core"
	"rdx/internal/ext"
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
)

// ringTailWord is the ring header's reservation word: magic at +0, then the
// tail a FETCH_ADD bumps (ring.go's layout).
const ringTailWord = 8

// ringMR discovers the standby's journal ring MR over a fresh link.
func (r *haRig) ringMR(t *testing.T) (rdma.Verbs, rdma.MR) {
	t.Helper()
	qp := r.hostQP(t)
	mrs, err := qp.QueryMRs()
	if err != nil {
		t.Fatal(err)
	}
	for _, mr := range mrs {
		if mr.Name == controlha.RingMRName {
			return qp, mr
		}
	}
	t.Fatal("standby exposes no journal ring MR")
	return nil, rdma.MR{}
}

// TestAttachAfterReleaseContinuesSequence attaches a second controller to a
// ring whose first leader released its lease. The second term must continue
// the ring's sequence: the standby's fold stays replayable, and a later
// takeover's state holds the second controller's publish.
func TestAttachAfterReleaseContinuesSequence(t *testing.T) {
	rig := newHARig(t, 1)
	cp1, g1, _ := rig.controller(t)
	first, err := controlha.AttachLeader(cp1, rig.hostQP(t), 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g1[0].InjectExtension(cluster.GenerationExt(ext.KindEBPF, 1, 200), "ingress"); err != nil {
		t.Fatal(err)
	}
	if err := first.Lease.Release(); err != nil {
		t.Fatal(err)
	}

	cp2, g2, _ := rig.controller(t)
	if _, err := controlha.AttachLeader(cp2, rig.hostQP(t), 2, time.Minute); err != nil {
		t.Fatalf("attach after release: %v", err)
	}
	if _, err := g2[0].InjectExtension(cluster.GenerationExt(ext.KindEBPF, 2, 200), "ingress"); err != nil {
		t.Fatal(err)
	}
	key := core.DeployedKey{Node: g2[0].NodeKey(), Hook: "ingress"}
	want := cp2.DeployedVersions()[key]
	if want == cp1.DeployedVersions()[key] {
		t.Fatalf("second publish left the deployed version at %+v", want)
	}

	if _, err := rig.host.Pump(); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.host.State(); err != nil {
		t.Fatalf("standby fold after a second attach: %v", err)
	}
	cp3, _, flows := rig.controller(t)
	_, state, err := controlha.TakeOver(cp3, rig.host, rig.hostQP(t), 3, time.Minute, flows)
	if err != nil {
		t.Fatalf("takeover after a second attach: %v", err)
	}
	if got := state.Versions[controlha.Key{Node: key.Node, Hook: key.Hook}]; got != want {
		t.Fatalf("takeover replayed %+v, want the second publish %+v", got, want)
	}
}

// TestAttachCollapsesDeadReservation leaves a reservation no leader ever
// commits (a raw FETCH_ADD on the ring tail), then attaches. The attach
// fences the ring and collapses the reservation, so its publish replicates.
func TestAttachCollapsesDeadReservation(t *testing.T) {
	rig := newHARig(t, 1)
	qp, ring := rig.ringMR(t)
	if _, err := qp.FetchAddCtx(context.Background(), ring.RKey, ring.Addr+ringTailWord, 64); err != nil {
		t.Fatal(err)
	}

	cp, g, _ := rig.controller(t)
	if _, err := controlha.AttachLeader(cp, rig.hostQP(t), 1, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := g[0].InjectExtension(cluster.GenerationExt(ext.KindEBPF, 1, 200), "ingress"); err != nil {
		t.Fatal(err)
	}
	if got := rig.reg.Counter("controlha.journal.replication_errors").Value(); got != 0 {
		t.Errorf("replication_errors = %d after attaching over a dead reservation, want 0", got)
	}
	if got := rig.reg.Counter("controlha.journal.replicated").Value(); got == 0 {
		t.Error("no journal entry replicated")
	}
	if got := rig.reg.Counter("controlha.journal.reconciled_reservations").Value(); got != 1 {
		t.Errorf("reconciled_reservations = %d, want 1", got)
	}
}

// TestAttachAgainstLiveLeaseFencesNothing pins "lease before fence": an
// attach refused by a live lease leaves the live leader's ring rkey and
// epoch word as they were, so that leader keeps replicating.
func TestAttachAgainstLiveLeaseFencesNothing(t *testing.T) {
	rig := newHARig(t, 1)
	cp1, g1, _ := rig.controller(t)
	if _, err := controlha.AttachLeader(cp1, rig.hostQP(t), 1, time.Minute); err != nil {
		t.Fatal(err)
	}
	_, ringBefore := rig.ringMR(t)
	before, err := controlha.Inspect(rig.hostQP(t))
	if err != nil {
		t.Fatal(err)
	}

	cp2, _, _ := rig.controller(t)
	if _, err := controlha.AttachLeader(cp2, rig.hostQP(t), 2, time.Minute); !errors.Is(err, controlha.ErrLeaseHeld) {
		t.Fatalf("attach against a live lease: %v, want ErrLeaseHeld", err)
	}
	if _, ring := rig.ringMR(t); ring.RKey != ringBefore.RKey {
		t.Errorf("refused attach rotated the ring rkey %d -> %d", ringBefore.RKey, ring.RKey)
	}
	after, err := controlha.Inspect(rig.hostQP(t))
	if err != nil {
		t.Fatal(err)
	}
	if after.RingEpoch != before.RingEpoch || after.Epoch != before.Epoch {
		t.Errorf("refused attach moved ring epoch %d -> %d, fencing epoch %d -> %d",
			before.RingEpoch, after.RingEpoch, before.Epoch, after.Epoch)
	}

	if _, err := g1[0].InjectExtension(cluster.GenerationExt(ext.KindEBPF, 1, 200), "ingress"); err != nil {
		t.Fatalf("live leader's publish: %v", err)
	}
	if got := rig.reg.Counter("controlha.journal.replication_errors").Value(); got != 0 {
		t.Errorf("replication_errors = %d after a refused attach, want 0", got)
	}
	if got := rig.reg.Counter("controlha.journal.replicated").Value(); got == 0 {
		t.Error("live leader's publish did not replicate")
	}
}

// TestColdInjectIsOneStandbyFlight pins the standby cost of a cold publish
// under an attached leader: the fence READ before the dispatch CAS and one
// 4-verb flight, which carries the validate and compile entries along with
// the publish's — not a flight for each.
func TestColdInjectIsOneStandbyFlight(t *testing.T) {
	rig := newHARig(t, 1)
	cp, g, _ := rig.controller(t)
	stby := rig.hostQP(t)
	wire := telemetry.NewRegistry()
	stby.(*rdma.QP).SetInstruments(rdma.NewWireMetrics(wire, "stby"), nil, "standby")
	verbs := func() (n uint64) {
		for _, op := range []string{"read", "write", "cas", "fetch_add", "write_imm", "batch"} {
			n += wire.Counter("stby.verbs." + op).Value()
		}
		return n
	}
	if _, err := controlha.AttachLeader(cp, stby, 1, time.Minute); err != nil {
		t.Fatal(err)
	}
	before := verbs()
	if _, err := g[0].InjectExtension(cluster.GenerationExt(ext.KindEBPF, 1, 200), "ingress"); err != nil {
		t.Fatal(err)
	}
	if got := verbs() - before; got != 5 {
		t.Errorf("cold inject issued %d standby verbs, want 5 (fence READ + one flight)", got)
	}
	if got := rig.reg.Counter("controlha.journal.flights").Value(); got != 1 {
		t.Errorf("%d journal flights, want 1", got)
	}
	if got := rig.reg.Counter("controlha.journal.replicated").Value(); got != 3 {
		t.Errorf("%d entries replicated, want validate + compile + publish", got)
	}
}
