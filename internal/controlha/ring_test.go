package controlha

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"rdx/internal/core"
	"rdx/internal/rdma"
	"rdx/internal/sim"
	"rdx/internal/telemetry"
)

// hostRig serves a Host on a fabric and hands out connected verb QPs plus
// the discovered MR table.
type hostRig struct {
	host *Host
	fab  *rdma.Fabric
}

func newHostRig(t *testing.T, ringCap uint64) *hostRig {
	t.Helper()
	h, err := NewHostWith(ringCap, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	fab := rdma.NewFabric()
	l, err := fab.Listen("standby")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(l)
	return &hostRig{host: h, fab: fab}
}

func (r *hostRig) connect(t *testing.T) (*core.RemoteMemory, rdma.MR, rdma.MR) {
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
	witness, err := findMR(mrs, WitnessMRName)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := findMR(mrs, RingMRName)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewRemoteMemory(qp, mrs), witness, ring
}

func TestLeaseAcquireStealAndFence(t *testing.T) {
	rig := newHostRig(t, 0)
	mem1, w, _ := rig.connect(t)
	mem2, _, _ := rig.connect(t)
	reg := telemetry.NewRegistry()

	l1 := NewLease(mem1, w.Addr, 1, time.Minute, reg, nil)
	if err := l1.Acquire(); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if l1.Epoch() != 1 || !l1.Held() {
		t.Fatalf("epoch=%d held=%v after first acquire", l1.Epoch(), l1.Held())
	}
	if err := l1.Check(); err != nil {
		t.Fatalf("check while holding: %v", err)
	}
	if err := l1.Renew(); err != nil {
		t.Fatalf("renew while holding: %v", err)
	}

	// A second controller cannot acquire a live lease...
	l2 := NewLease(mem2, w.Addr, 2, time.Minute, reg, nil)
	if err := l2.Acquire(); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("acquire of live lease: %v, want ErrLeaseHeld", err)
	}
	// ...but can steal it, bumping the epoch past l1's term.
	if err := l2.Steal(); err != nil {
		t.Fatalf("steal: %v", err)
	}
	if l2.Epoch() != 2 {
		t.Fatalf("epoch after steal = %d", l2.Epoch())
	}

	// l1 discovers its deposal via the fencing epoch: Check and Renew fail
	// with the typed error and l1 marks itself deposed.
	if err := l1.Check(); !errors.Is(err, core.ErrFenced) {
		t.Fatalf("deposed check: %v, want ErrFenced", err)
	}
	if l1.Held() {
		t.Error("l1 still believes it holds the lease after fenced check")
	}
	if err := l1.Renew(); !errors.Is(err, core.ErrFenced) {
		t.Fatalf("deposed renew: %v, want ErrFenced", err)
	}
	if got := reg.Counter("controlha.lease.fenced_rejects").Value(); got == 0 {
		t.Error("fenced_rejects counter never incremented")
	}
	if got := reg.Counter("controlha.lease.acquired").Value(); got != 2 {
		t.Errorf("acquired counter = %d, want 2", got)
	}
}

func TestLeaseExpiredTakeover(t *testing.T) {
	rig := newHostRig(t, 0)
	mem1, w, _ := rig.connect(t)
	mem2, _, _ := rig.connect(t)

	// A virtual clock shared by both leases makes the expiry a single
	// deterministic jump instead of a real sleep racing a 1ms TTL.
	clk := sim.NewVirtualClock(time.Now())
	l1 := NewLease(mem1, w.Addr, 1, time.Millisecond, nil, clk)
	if err := l1.Acquire(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Millisecond)
	// The TTL lapsed: a standby acquires without stealing.
	l2 := NewLease(mem2, w.Addr, 2, time.Minute, nil, clk)
	if err := l2.Acquire(); err != nil {
		t.Fatalf("acquire of expired lease: %v", err)
	}
	if l2.Epoch() != 2 {
		t.Fatalf("epoch = %d", l2.Epoch())
	}
	// The locally-expired holder fails closed even before reading remotely.
	if err := l1.Check(); !errors.Is(err, core.ErrFenced) {
		t.Fatalf("expired holder check: %v, want ErrFenced", err)
	}
}

func TestReplicationPumpAndWrap(t *testing.T) {
	// A deliberately tiny ring, under three entries wide: appends wrap the
	// data region repeatedly, and entries straddle the wrap point, exercising
	// the split WRITE and split Pump paths. The standby pumps after every
	// append, so its local journal copy stays complete even though the ring
	// holds only a window.
	const ringCap = 104
	rig := newHostRig(t, ringCap)
	mem, w, ring := rig.connect(t)

	lease := NewLease(mem, w.Addr, 1, time.Minute, nil, nil)
	if err := lease.Acquire(); err != nil {
		t.Fatal(err)
	}
	rep := NewReplicator(mem, ring.Addr, 0, lease.Epoch(), nil)
	if err := rep.Activate(); err != nil {
		t.Fatal(err)
	}
	j := NewJournal(telemetry.NewRegistry())
	j.SetFenceSource(lease.Epoch)
	j.SetReplicator(rep)

	for i := 1; i <= 8; i++ {
		j.JournalPublish("0x1", "ingress", core.Deployed{
			Blob: uint64(0x100 * i), Version: uint64(i),
			Name: fmt.Sprintf("v%d", i), Digest: fmt.Sprintf("sha256:%04d", i),
		})
		if _, err := rig.host.Pump(); err != nil {
			t.Fatalf("pump after entry %d: %v", i, err)
		}
	}

	// The pumped copy replays identically to the leader's local journal.
	want, err := Replay(j.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Replay(rig.host.JournalBytes())
	if err != nil {
		t.Fatalf("replay of pumped copy: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("pumped replay diverged:\n%+v\n%+v", want, got)
	}
	if got.LastSeq != 8 {
		t.Fatalf("lastSeq = %d", got.LastSeq)
	}
	straddled := 0
	for b, off := j.Bytes(), 0; off < len(b); {
		_, n, err := DecodeEntry(b[off:])
		if err != nil {
			t.Fatal(err)
		}
		if off/ringCap != (off+n-1)/ringCap {
			straddled++
		}
		off += n
	}
	if straddled == 0 {
		t.Fatal("no entry straddles the wrap point: the split WRITE and Pump paths did not run")
	}

	// The wrapped ring no longer holds full history for late readers.
	if _, err := FetchJournal(mem, ring.Addr); !errors.Is(err, ErrRingOverrun) {
		t.Fatalf("FetchJournal on wrapped ring: %v, want ErrRingOverrun", err)
	}

	// A standby that stops pumping past one full capacity loses bytes —
	// typed overrun, not silent corruption.
	for i, pumped := 0, len(rig.host.JournalBytes()); len(j.Bytes())-pumped <= ringCap; i++ {
		j.JournalClaim("0x1", uint64(i))
	}
	if _, err := rig.host.Pump(); !errors.Is(err, ErrRingOverrun) {
		t.Fatalf("lagged pump: %v, want ErrRingOverrun", err)
	}
}

func TestReplicatorFencedAppend(t *testing.T) {
	rig := newHostRig(t, 0)
	mem1, w, ring := rig.connect(t)
	mem2, _, _ := rig.connect(t)
	reg := telemetry.NewRegistry()

	l1 := NewLease(mem1, w.Addr, 1, time.Minute, reg, nil)
	if err := l1.Acquire(); err != nil {
		t.Fatal(err)
	}
	rep1 := NewReplicator(mem1, ring.Addr, 0, l1.Epoch(), reg)
	if err := rep1.Activate(); err != nil {
		t.Fatal(err)
	}
	e1 := Entry{Type: EntryValidate, Seq: 1, Fence: 1, Digest: "d"}
	if err := rep1.Append(e1.Encode(nil)); err != nil {
		t.Fatalf("append under own term: %v", err)
	}

	// A successor steals and re-stamps the ring epoch.
	l2 := NewLease(mem2, w.Addr, 2, time.Minute, reg, nil)
	if err := l2.Steal(); err != nil {
		t.Fatal(err)
	}
	rep2 := NewReplicator(mem2, ring.Addr, 0, l2.Epoch(), reg)
	if err := rep2.Activate(); err != nil {
		t.Fatal(err)
	}

	// The deposed leader's next append is rejected by the epoch word and
	// must not grow the committed journal.
	hwmBefore, _ := mem1.ReadMem(ring.Addr+ringOffHwm, 8)
	e2 := Entry{Type: EntryValidate, Seq: 2, Fence: 1, Digest: "d2"}
	if err := rep1.Append(e2.Encode(nil)); !errors.Is(err, ErrFencedAppend) {
		t.Fatalf("deposed append: %v, want ErrFencedAppend", err)
	}
	hwmAfter, _ := mem1.ReadMem(ring.Addr+ringOffHwm, 8)
	if hwmBefore != hwmAfter {
		t.Fatalf("fenced append moved hwm %d -> %d", hwmBefore, hwmAfter)
	}
	if got := reg.Counter("controlha.journal.fenced_appends").Value(); got != 1 {
		t.Errorf("fenced_appends = %d", got)
	}

	// The new term appends fine, seq continuing.
	if err := rep2.Append(e2.Encode(nil)); err != nil {
		t.Fatalf("successor append: %v", err)
	}
}
