package rdma

import (
	"context"
	"errors"
	"sync"
	"testing"

	"rdx/internal/mem"
	"rdx/internal/verbchain"
)

// armChain validates and writes a chain region into the rig's arena at base
// over the wire, then returns the region rkey to trigger with.
func armChain(t *testing.T, qp *QP, rkey uint32, base mem.Addr, prog *verbchain.Program, regions []verbchain.Region) {
	t.Helper()
	if err := prog.Validate(regions); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if err := qp.Write(rkey, base, verbchain.EncodeRegion(prog)); err != nil {
		t.Fatalf("arm: %v", err)
	}
}

func regionOf(mr *MR) verbchain.Region {
	return verbchain.Region{
		RKey:   mr.RKey,
		Addr:   uint64(mr.Addr),
		Len:    mr.Len,
		Read:   mr.Perm&PermRead != 0,
		Write:  mr.Perm&PermWrite != 0,
		Atomic: mr.Perm&PermAtomic != 0,
	}
}

// TestChainTriggerExecutes drives a two-op chain over the fabric: CAS a
// word and write the trigger argument elsewhere, one wire verb total.
func TestChainTriggerExecutes(t *testing.T) {
	arena, ep, qp := newTestRig(t, 1<<16, nil)
	mr, err := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	if err != nil {
		t.Fatal(err)
	}
	const chainBase, target, argDst = 0x1000, 0x100, 0x108
	prog := &verbchain.Program{Ops: []verbchain.Op{
		{Kind: verbchain.KindCAS, RKey: mr.RKey, Addr: target,
			Cmp: verbchain.Imm(0), Src: verbchain.Imm(77), Dst: verbchain.NoReg, AbortIfLost: true},
		{Kind: verbchain.KindWrite, RKey: mr.RKey, Addr: argDst,
			Src: verbchain.Reg(verbchain.ArgReg), Dst: verbchain.NoReg},
	}}
	armChain(t, qp, mr.RKey, chainBase, prog, []verbchain.Region{regionOf(mr)})

	res, err := qp.ChainTriggerCtx(context.Background(), mr.RKey, chainBase, 0xDEAD)
	if err != nil {
		t.Fatalf("trigger: %v", err)
	}
	if res.Trigger != 1 || res.Code() != verbchain.StatusOK {
		t.Fatalf("result = %+v", res)
	}
	if v, _ := arena.ReadQword(target); v != 77 {
		t.Errorf("CAS target = %d, want 77", v)
	}
	if v, _ := arena.ReadQword(argDst); v != 0xDEAD {
		t.Errorf("arg write = %#x, want 0xdead", v)
	}
	if st, _ := arena.ReadQword(chainBase + verbchain.OffStatus); verbchain.StatusCode(st) != verbchain.StatusOK {
		t.Errorf("persisted status = %#x", st)
	}
}

// TestChainRotatedRegionFailsTyped pins the acceptance criterion: a trigger
// against a rotated chain-region rkey fails ErrAccess — typed, and the
// stale resident program provably never executes.
func TestChainRotatedRegionFailsTyped(t *testing.T) {
	arena, ep, qp := newTestRig(t, 1<<16, nil)
	mr, err := ep.RegisterMR("chain", 0x1000, 0x1000, PermAll)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := ep.RegisterMR("data", 0, 0x100, PermAll)
	if err != nil {
		t.Fatal(err)
	}
	prog := &verbchain.Program{Ops: []verbchain.Op{
		{Kind: verbchain.KindWrite, RKey: tgt.RKey, Addr: 0x0,
			Src: verbchain.Imm(1), Dst: verbchain.NoReg},
	}}
	armChain(t, qp, mr.RKey, 0x1000, prog, []verbchain.Region{regionOf(mr), regionOf(tgt)})

	if _, err := ep.RotateMR("chain"); err != nil {
		t.Fatal(err)
	}
	_, err = qp.ChainTriggerCtx(context.Background(), mr.RKey, 0x1000, 0)
	if !errors.Is(err, ErrAccess) {
		t.Fatalf("trigger on rotated region: err = %v, want ErrAccess", err)
	}
	if v, _ := arena.ReadQword(0x0); v != 0 {
		t.Errorf("stale program executed: target = %d", v)
	}
	if trig, _ := arena.ReadQword(0x1000 + verbchain.OffTrigger); trig != 0 {
		t.Errorf("trigger count bumped on rotated region: %d", trig)
	}
}

// TestChainStepRevokedByRotation rotates a STEP target's rkey after arming:
// the trigger itself executes (the region key is fine), but the step's
// fire-time re-resolution fails and the chain reports revoked.
func TestChainStepRevokedByRotation(t *testing.T) {
	arena, ep, qp := newTestRig(t, 1<<16, nil)
	mr, err := ep.RegisterMR("chain", 0x1000, 0x1000, PermAll)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := ep.RegisterMR("data", 0, 0x100, PermAll)
	if err != nil {
		t.Fatal(err)
	}
	prog := &verbchain.Program{Ops: []verbchain.Op{
		{Kind: verbchain.KindWrite, RKey: tgt.RKey, Addr: 0x0,
			Src: verbchain.Imm(9), Dst: verbchain.NoReg},
	}}
	armChain(t, qp, mr.RKey, 0x1000, prog, []verbchain.Region{regionOf(mr), regionOf(tgt)})

	if _, err := ep.RotateMR("data"); err != nil {
		t.Fatal(err)
	}
	res, err := qp.ChainTriggerCtx(context.Background(), mr.RKey, 0x1000, 0)
	if !errors.Is(err, ErrChainRevoked) {
		t.Fatalf("err = %v, want ErrChainRevoked", err)
	}
	if res.Code() != verbchain.StatusRevoked {
		t.Errorf("status = %d, want revoked", res.Code())
	}
	if v, _ := arena.ReadQword(0x0); v != 0 {
		t.Errorf("revoked step executed: target = %d", v)
	}
}

// TestChainGuardRevokes points a program guard at an epoch word and bumps
// it: the armed chain revokes on its next firing without being touched.
func TestChainGuardRevokes(t *testing.T) {
	arena, ep, qp := newTestRig(t, 1<<16, nil)
	mr, err := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	if err != nil {
		t.Fatal(err)
	}
	const chainBase, epochW, target = 0x1000, 0x100, 0x108
	if err := arena.WriteQword(epochW, 5); err != nil {
		t.Fatal(err)
	}
	prog := &verbchain.Program{
		Ops: []verbchain.Op{{Kind: verbchain.KindWrite, RKey: mr.RKey, Addr: target,
			Src: verbchain.Imm(1), Dst: verbchain.NoReg}},
		Guard: verbchain.Guard{Enabled: true, RKey: mr.RKey, Addr: epochW, Want: 5},
	}
	armChain(t, qp, mr.RKey, chainBase, prog, []verbchain.Region{regionOf(mr)})

	if _, err := qp.ChainTriggerCtx(context.Background(), mr.RKey, chainBase, 0); err != nil {
		t.Fatalf("guarded trigger: %v", err)
	}
	// Epoch bump = fencing: the same resident chain now revokes.
	if _, err := qp.FetchAddCtx(context.Background(), mr.RKey, epochW, 1); err != nil {
		t.Fatal(err)
	}
	_, err = qp.ChainTriggerCtx(context.Background(), mr.RKey, chainBase, 0)
	if !errors.Is(err, ErrChainRevoked) {
		t.Fatalf("post-bump trigger: err = %v, want ErrChainRevoked", err)
	}
}

// TestChainBarrierFanIn exercises the WhenTrigger CAS-enable edge: N-1
// triggers skip the commit op, the Nth fires it and rings the doorbell.
func TestChainBarrierFanIn(t *testing.T) {
	arena, ep, qp := newTestRig(t, 1<<16, nil)
	mr, err := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	if err != nil {
		t.Fatal(err)
	}
	const chainBase, commit = 0x1000, 0x100
	const parties = 4
	var mu sync.Mutex
	rang := 0
	ep.RegisterDoorbell(commit, 8, func(imm uint32, addr mem.Addr, data []byte) {
		mu.Lock()
		rang++
		mu.Unlock()
	})
	prog := &verbchain.Program{
		Ops: []verbchain.Op{{Kind: verbchain.KindCAS, RKey: mr.RKey, Addr: commit,
			Cmp: verbchain.Imm(0), Src: verbchain.Imm(42), Dst: verbchain.NoReg,
			AbortIfLost: true, When: verbchain.WhenTrigger(parties)}},
		Doorbell: &verbchain.Doorbell{RKey: mr.RKey, Addr: commit, Imm: 1},
	}
	armChain(t, qp, mr.RKey, chainBase, prog, []verbchain.Region{regionOf(mr)})

	for i := 1; i <= parties; i++ {
		res, err := qp.ChainTriggerCtx(context.Background(), mr.RKey, chainBase, 0)
		if err != nil {
			t.Fatalf("arrival %d: %v", i, err)
		}
		if res.Trigger != uint64(i) {
			t.Fatalf("arrival %d: trigger count %d", i, res.Trigger)
		}
		v, _ := arena.ReadQword(commit)
		if i < parties && v != 0 {
			t.Fatalf("commit flipped at arrival %d", i)
		}
		if i == parties && v != 42 {
			t.Fatalf("final arrival did not commit: word = %d", v)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if rang != parties {
		// The doorbell rides chain completion, so each successful firing
		// (skipped ops included) rings once.
		t.Errorf("doorbell rang %d times, want %d", rang, parties)
	}
}

// TestChainWaitAndLoop drives the remaining op kinds end to end: a WAIT
// satisfied by pre-set memory and a counted loop of FETCH-ADDs.
func TestChainWaitAndLoop(t *testing.T) {
	arena, ep, qp := newTestRig(t, 1<<16, nil)
	mr, err := ep.RegisterMR("all", 0, arena.Size(), PermAll)
	if err != nil {
		t.Fatal(err)
	}
	const chainBase, flag, counter = 0x1000, 0x100, 0x108
	if err := arena.WriteQword(flag, 7); err != nil {
		t.Fatal(err)
	}
	prog := &verbchain.Program{Ops: []verbchain.Op{
		{Kind: verbchain.KindWait, RKey: mr.RKey, Addr: flag,
			Src: verbchain.Imm(7), Dst: verbchain.NoReg, Spins: 16},
		{Kind: verbchain.KindFetchAdd, RKey: mr.RKey, Addr: counter,
			Src: verbchain.Imm(1), Dst: verbchain.NoReg},
		{Kind: verbchain.KindLoop, To: 1, Spins: 5},
	}}
	armChain(t, qp, mr.RKey, chainBase, prog, []verbchain.Region{regionOf(mr)})

	res, err := qp.ChainTriggerCtx(context.Background(), mr.RKey, chainBase, 0)
	if err != nil {
		t.Fatalf("trigger: %v", err)
	}
	if v, _ := arena.ReadQword(counter); v != 5 {
		t.Errorf("counter = %d, want 5 (loop expansion)", v)
	}
	if res.Steps == 0 {
		t.Errorf("steps = 0")
	}
}

// TestRemoteRotateMR round-trips the OpRotateMR verb: the returned rkey is
// live, the old one is fenced.
func TestRemoteRotateMR(t *testing.T) {
	arena, ep, qp := newTestRig(t, 1<<12, nil)
	_ = arena
	mr, err := ep.RegisterMR("r", 0, 0x100, PermAll)
	if err != nil {
		t.Fatal(err)
	}
	oldKey := mr.RKey
	newKey, err := qp.RotateMRCtx(context.Background(), "r")
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if newKey == oldKey {
		t.Fatalf("rotation returned the same rkey %#x", oldKey)
	}
	if err := qp.Write(oldKey, 0, []byte{1}); !errors.Is(err, ErrAccess) {
		t.Errorf("old rkey write: err = %v, want ErrAccess", err)
	}
	if err := qp.Write(newKey, 0, []byte{1}); err != nil {
		t.Errorf("new rkey write: %v", err)
	}
	if _, err := qp.RotateMRCtx(context.Background(), "nonesuch"); !errors.Is(err, ErrOp) {
		t.Errorf("rotate unknown region: err = %v, want ErrOp", err)
	}
}

// TestReconnChainVerbs drives the new verbs through the reconnecting
// wrapper: virtual rkeys stay stable across a rotation it performed.
func TestReconnChainVerbs(t *testing.T) {
	arena, mr, _, r := reconnRig(t, 1<<16)
	reconnects := reconnects(r)
	mrs, err := r.QueryMRs()
	if err != nil {
		t.Fatal(err)
	}
	virt := mrs[0].RKey
	prog := &verbchain.Program{Ops: []verbchain.Op{
		{Kind: verbchain.KindWrite, RKey: mr.RKey, Addr: 0x1800,
			Src: verbchain.Reg(verbchain.ArgReg), Dst: verbchain.NoReg},
	}}
	if err := prog.Validate(nil); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCtx(context.Background(), virt, 0x1000, verbchain.EncodeRegion(prog)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ChainTriggerCtx(context.Background(), virt, 0x1000, 11); err != nil {
		t.Fatalf("trigger via reconn: %v", err)
	}
	if v, _ := arena.ReadQword(0x1800); v != 11 {
		t.Fatalf("arg = %d, want 11", v)
	}
	// Rotate through the wrapper: the wrapper's virtual key keeps reaching
	// the region (so the trigger verb itself still completes), but the
	// REAL rkey baked into the resident program's step is now fenced — the
	// chain revokes at fire time, exactly like a stale single verb.
	if _, err := r.RotateMRCtx(context.Background(), "all"); err != nil {
		t.Fatalf("rotate via reconn: %v", err)
	}
	_, err = r.ChainTriggerCtx(context.Background(), virt, 0x1000, 12)
	if !errors.Is(err, ErrChainRevoked) {
		t.Fatalf("trigger after rotate: err = %v, want ErrChainRevoked", err)
	}
	if v, _ := arena.ReadQword(0x1800); v != 11 {
		t.Errorf("revoked chain wrote: arg = %d, want 11 still", v)
	}
	// A chain outcome is not a transport error: the wrapper never redials
	// on it.
	if n := reconnects(); n != 0 {
		t.Errorf("%d reconnects after a revoked trigger, want 0", n)
	}
}
