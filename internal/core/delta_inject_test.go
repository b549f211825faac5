package core

import (
	"bytes"
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdx/internal/ebpf"
	"rdx/internal/ext"
	"rdx/internal/faultnet"
	"rdx/internal/node"
	"rdx/internal/pipeline"
	"rdx/internal/rdma"
	"rdx/internal/xabi"
)

// bigProg builds a multi-kilobyte extension: a long run of filler moves
// followed by the verdict. Two bigProgs with the same filler count JIT to
// images that differ only near the tail (the verdict immediate) and in the
// blob header, so a page-granular delta between them is a small fraction
// of the full image — the delta injection path's bread and butter.
func bigProg(name string, ret int32) *ext.Extension {
	const filler = 512
	insns := make([]ebpf.Instruction, 0, filler+2)
	for i := 0; i < filler; i++ {
		insns = append(insns, ebpf.Mov64Imm(ebpf.R1, int32(i)))
	}
	insns = append(insns, ebpf.Mov64Imm(ebpf.R0, ret), ebpf.Exit())
	return ext.FromEBPF(ebpf.NewProgram(name, ebpf.ProgTypeSocketFilter, insns))
}

// injectOn pushes e through the scheduler to a single target and fails the
// test on any per-node error.
func injectOn(t *testing.T, cp *ControlPlane, target pipeline.Target, e *ext.Extension) *pipeline.Result {
	t.Helper()
	res, err := cp.sched.Inject(pipeline.Request{
		Ext: e, Hook: "ingress", Targets: []pipeline.Target{target},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[0].Err != nil {
		t.Fatalf("inject %s: %v", e.Name(), res.Outcomes[0].Err)
	}
	return res
}

// readDispatchedCode reads back the code bytes the hook's dispatch pointer
// references, straight from node memory over a healthy connection.
func readDispatchedCode(t *testing.T, cf *CodeFlow, hook string) (uint64, []byte) {
	t.Helper()
	hookAddr, err := cf.HookAddr(hook)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cf.Remote.ReadMem(hookAddr+node.HookOffDispatch, 8)
	if err != nil {
		t.Fatal(err)
	}
	n, err := cf.Remote.ReadMem(blob+node.BlobOffLen, 4)
	if err != nil {
		t.Fatal(err)
	}
	code, err := cf.Remote.ReadBytes(blob+node.BlobHdrSize, int(n))
	if err != nil {
		t.Fatal(err)
	}
	return blob, code
}

func TestDeltaInjectionWritesOnlyChangedPages(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	reg := r.cp.Registry

	// First two injects allocate fresh blobs (no standby exists yet); the
	// second publish displaces v1's blob into the standby slot.
	injectOn(t, r.cp, cf, bigProg("delta-v1", 1))
	injectOn(t, r.cp, cf, bigProg("delta-v2", 2))
	if got := reg.Counter("artifact.delta.count").Value(); got != 0 {
		t.Fatalf("delta attempted during warm-up injects: count = %d", got)
	}

	// Third inject claims v1's blob as the delta target.
	v3 := bigProg("delta-v3", 3)
	injectOn(t, r.cp, cf, v3)
	if got := reg.Counter("artifact.delta.count").Value(); got != 1 {
		t.Fatalf("delta.count = %d, want 1", got)
	}
	written := reg.Counter("artifact.delta.bytes_written").Value()
	saved := reg.Counter("artifact.delta.bytes_saved").Value()
	if saved == 0 {
		t.Fatal("delta saved no bytes over a full rewrite")
	}
	if written >= saved {
		t.Fatalf("delta wrote %d bytes but saved only %d: images differ too much for the test's premise", written, saved)
	}

	// The node must run v3 byte-exactly despite receiving only changed pages.
	bin, err := r.cp.JITCompileCode(v3, cf.Arch)
	if err != nil {
		t.Fatal(err)
	}
	if _, code := readDispatchedCode(t, cf, "ingress"); !bytes.Equal(code, bin.Code) {
		t.Fatal("delta-published blob is not byte-identical to the compiled image")
	}
	out, err := r.nodes[0].ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if err != nil || out.Verdict != 3 {
		t.Fatalf("after delta publish: %+v err=%v", out, err)
	}
	dv, ok := r.cp.DeployedVersion(cf.NodeKey(), "ingress")
	if !ok || dv.Digest != v3.Digest() {
		t.Fatalf("deployed-version map: ok=%v digest=%q, want %q", ok, dv.Digest, v3.Digest())
	}

	// Leapfrog: the next inject claims v2's displaced blob and deltas again.
	injectOn(t, r.cp, cf, bigProg("delta-v4", 4))
	if got := reg.Counter("artifact.delta.count").Value(); got != 2 {
		t.Fatalf("delta.count after fourth inject = %d, want 2", got)
	}
	out, _ = r.nodes[0].ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if out.Verdict != 4 {
		t.Fatalf("verdict after leapfrog delta = %d, want 4", out.Verdict)
	}
}

// TestChaosKillMidDeltaNeverTearsLiveVersion is the delta-injection torn-
// update invariant: a connection killed partway through the delta's scatter
// writes must leave the node executing the previous version in full — the
// delta only ever targets dead standby blobs, never the dispatched one.
func TestChaosKillMidDeltaNeverTearsLiveVersion(t *testing.T) {
	r := newRig(t, 1)
	r.nodes[0].RNIC.SetLogf(nil) // kills tear frames by design
	reg := r.cp.Registry

	conn, err := r.fab.Dial(nodeID(0))
	if err != nil {
		t.Fatal(err)
	}
	fc := faultnet.Wrap(conn, faultnet.Options{})
	flaky, err := r.cp.CreateCodeFlow(fc)
	if err != nil {
		t.Fatal(err)
	}
	defer flaky.Close()

	// Warm the slots: v2's publish leaves v1's blob as the delta standby.
	v2 := bigProg("chaos-d2", 12)
	injectOn(t, r.cp, flaky, bigProg("chaos-d1", 11))
	rep2 := injectOn(t, r.cp, flaky, v2)

	bin2, err := r.cp.JITCompileCode(v2, flaky.Arch)
	if err != nil {
		t.Fatal(err)
	}

	// Arm the kill a couple hundred bytes into the next stage: past the
	// version FETCH_ADD (one small frame), inside the delta WriteBatch.
	fc.SetKillAfterBytes(fc.BytesWritten() + 200)

	var res *pipeline.Result
	var injErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, injErr = r.cp.sched.Inject(pipeline.Request{
			Ext: bigProg("chaos-d3", 13), Hook: "ingress",
			Targets: []pipeline.Target{flaky},
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("inject over a connection killed mid-delta hung")
	}
	if injErr != nil {
		t.Fatal(injErr)
	}
	if res.Outcomes[0].Err == nil || res.Published {
		t.Fatalf("inject over a dead plain QP reported success: %+v", res.Outcomes[0])
	}
	if got := reg.Counter("artifact.delta.count").Value(); got < 1 {
		t.Fatal("kill landed before the delta path was even attempted; test arms too early")
	}

	// The invariant: the node still executes v2 exactly — right verdict,
	// right hook version, byte-identical code under the dispatch pointer.
	out, err := r.nodes[0].ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if err != nil || out.Verdict != 12 {
		t.Fatalf("node after mid-delta kill: %+v err=%v (torn update?)", out, err)
	}
	healthy := r.cfs[0]
	_, _, hookVer, err := healthy.HookStats("ingress")
	if err != nil {
		t.Fatal(err)
	}
	if hookVer != rep2.Outcomes[0].Version {
		t.Fatalf("hook version = %d, want v2's %d", hookVer, rep2.Outcomes[0].Version)
	}
	if _, code := readDispatchedCode(t, healthy, "ingress"); !bytes.Equal(code, bin2.Code) {
		t.Fatal("dispatched blob diverged from v2's compiled image after mid-delta kill")
	}

	// Recovery over a healthy flow: the node takes the new version in full.
	injectOn(t, r.cp, healthy, bigProg("chaos-d4", 14))
	out, _ = r.nodes[0].ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if out.Verdict != 14 {
		t.Fatalf("post-recovery verdict = %d, want 14", out.Verdict)
	}
}

// TestChaosReconnQPRecoversMidDeltaKill kills the transport inside a delta
// WriteBatch behind a ReconnQP: the verb replays over a fresh connection
// and the job completes, leaving the node on the new version in full.
func TestChaosReconnQPRecoversMidDeltaKill(t *testing.T) {
	r := newRig(t, 1)
	r.nodes[0].RNIC.SetLogf(nil)
	reg := r.cp.Registry

	var mu sync.Mutex
	var conns []*faultnet.Conn
	dial := func() (net.Conn, error) {
		c, err := r.fab.Dial(nodeID(0))
		if err != nil {
			return nil, err
		}
		fc := faultnet.Wrap(c, faultnet.Options{})
		mu.Lock()
		conns = append(conns, fc)
		mu.Unlock()
		return fc, nil
	}
	rq, err := rdma.NewReconnQP(rdma.ReconnConfig{
		Dial: dial, VerbTimeout: 2 * time.Second, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	cf, err := r.cp.CreateCodeFlowQP(rq)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()

	injectOn(t, r.cp, cf, bigProg("rc-d1", 21))
	injectOn(t, r.cp, cf, bigProg("rc-d2", 22))

	mu.Lock()
	live := conns[len(conns)-1]
	live.SetKillAfterBytes(live.BytesWritten() + 200)
	mu.Unlock()

	v3 := bigProg("rc-d3", 23)
	var res *pipeline.Result
	var injErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, injErr = r.cp.sched.Inject(pipeline.Request{
			Ext: v3, Hook: "ingress", Targets: []pipeline.Target{cf},
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("reconnecting inject hung after a mid-delta kill")
	}
	if injErr != nil {
		t.Fatal(injErr)
	}
	if res.Outcomes[0].Err != nil || !res.Published {
		t.Fatalf("ReconnQP did not recover the delta inject: %+v", res.Outcomes[0])
	}
	if got := reg.Counter("artifact.delta.count").Value(); got < 1 {
		t.Fatal("delta path never attempted; the kill test exercised nothing")
	}

	out, err := r.nodes[0].ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if err != nil || out.Verdict != 23 {
		t.Fatalf("node after recovered delta: %+v err=%v", out, err)
	}
	bin3, err := r.cp.JITCompileCode(v3, cf.Arch)
	if err != nil {
		t.Fatal(err)
	}
	if _, code := readDispatchedCode(t, r.cfs[0], "ingress"); !bytes.Equal(code, bin3.Code) {
		t.Fatal("recovered delta left the blob different from v3's compiled image")
	}
	dv, ok := r.cp.DeployedVersion(cf.NodeKey(), "ingress")
	if !ok || dv.Digest != v3.Digest() || dv.Version != res.Outcomes[0].Version {
		t.Fatalf("deployed-version map after recovery: ok=%v %+v", ok, dv)
	}
}

// TestConcurrentBroadcastLastWriterWins races two broadcasts of different
// versions of the same CodeFlow name across the fleet under -race: both
// must complete without deadlocking on the publish barrier, and the
// deployed-version map must name the version each node's hook word holds —
// the last flip to land there, not the higher epoch — with each node
// executing one of the two versions in full.
func TestConcurrentBroadcastLastWriterWins(t *testing.T) {
	const fleet = 4
	r := newRig(t, fleet)
	g := Group(r.cfs)

	// Two sequential broadcasts fill both slot buffers so the racing pair
	// below contends on the delta claim/publish machinery, not just fresh
	// allocations.
	if _, err := g.Broadcast(bigProg("flow", 1), BroadcastOptions{Hook: "ingress"}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Broadcast(bigProg("flow", 2), BroadcastOptions{Hook: "ingress"}); err != nil {
		t.Fatal(err)
	}

	vA, vB := bigProg("flow", 11), bigProg("flow", 12)
	var repA, repB BroadcastReport
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		repA, errA = g.Broadcast(vA, BroadcastOptions{Hook: "ingress", BBU: true})
	}()
	go func() {
		defer wg.Done()
		repB, errB = g.Broadcast(vB, BroadcastOptions{Hook: "ingress", BBU: true})
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent broadcasts deadlocked on the publish barrier")
	}
	if errA != nil || errB != nil {
		t.Fatalf("concurrent broadcasts failed: A=%v B=%v", errA, errB)
	}

	binA, err := r.cp.JITCompileCode(vA, r.cfs[0].Arch)
	if err != nil {
		t.Fatal(err)
	}
	binB, err := r.cp.JITCompileCode(vB, r.cfs[0].Arch)
	if err != nil {
		t.Fatal(err)
	}
	for i, cf := range r.cfs {
		dv, ok := r.cp.DeployedVersion(cf.NodeKey(), "ingress")
		if !ok {
			t.Fatalf("node %d missing from the deployed-version map", i)
		}
		// The map follows the flips in the order they landed: it names
		// the version the node's hook word holds, whichever that is.
		_, _, wantVer, err := cf.HookStats("ingress")
		if err != nil {
			t.Fatal(err)
		}
		var wantDig string
		switch wantVer {
		case repA.Outcomes[i].Version:
			wantDig = vA.Digest()
		case repB.Outcomes[i].Version:
			wantDig = vB.Digest()
		default:
			t.Errorf("node %d hook word holds version %d, neither racing publish's", i, wantVer)
		}
		if dv.Version != wantVer || dv.Digest != wantDig {
			t.Errorf("node %d version map = (%d,%q), want the dispatched (%d,%q)",
				i, dv.Version, dv.Digest, wantVer, wantDig)
		}
		// Whichever publish the node's CAS observed last, the blob it
		// dispatches must be one complete version, never a blend.
		out, execErr := r.nodes[i].ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
		if execErr != nil || (out.Verdict != 11 && out.Verdict != 12) {
			t.Errorf("node %d verdict = %+v err=%v, want 11 or 12", i, out, execErr)
		}
		if _, code := readDispatchedCode(t, cf, "ingress"); !bytes.Equal(code, binA.Code) && !bytes.Equal(code, binB.Code) {
			t.Errorf("node %d dispatches code matching neither racing version: torn publish", i)
		}
	}
}

// flakyStageTarget fails its first Stage calls with a transport error
// AFTER the underlying staging ran, modeling a commit-side wobble that
// forces the scheduler to retry the whole stage.
type flakyStageTarget struct {
	*CodeFlow
	fails atomic.Int32
}

func (f *flakyStageTarget) Stage(ctx context.Context, e *ext.Extension, hook string) (pipeline.Staged, error) {
	s, err := f.CodeFlow.Stage(ctx, e, hook)
	if err == nil && f.fails.Add(-1) >= 0 {
		return nil, rdma.ErrTimeout
	}
	return s, err
}

// TestSchedulerRetryDoesNotRecompile is the regression test for the retry
// path re-running validate/JIT: every retry (and every later job with the
// same digest) must be served by the artifact cache, so the compiler runs
// exactly once no matter how many times staging is re-driven.
func TestSchedulerRetryDoesNotRecompile(t *testing.T) {
	r := newRig(t, 1)
	reg := r.cp.Registry
	ft := &flakyStageTarget{CodeFlow: r.cfs[0]}
	ft.fails.Store(1)

	e := bigProg("retry-once", 31)
	res := injectOn(t, r.cp, ft, e)
	if res.Outcomes[0].Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one transport failure, one retry)", res.Outcomes[0].Attempts)
	}
	if got := reg.Counter("artifact.compile.invocations").Value(); got != 1 {
		t.Fatalf("compile ran %d times across a retried stage, want 1", got)
	}
	if got := reg.Counter("artifact.validate.invocations").Value(); got != 1 {
		t.Fatalf("validate ran %d times across a retried stage, want 1", got)
	}

	// A whole second job with the same digest: still no recompilation.
	injectOn(t, r.cp, ft, e)
	if got := reg.Counter("artifact.compile.invocations").Value(); got != 1 {
		t.Fatalf("compile ran %d times after a repeat job, want 1", got)
	}
	if hits := reg.Counter("artifact.cache.hit").Value(); hits == 0 {
		t.Fatal("repeat job never hit the artifact cache")
	}
	out, err := r.nodes[0].ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if err != nil || out.Verdict != 31 {
		t.Fatalf("after retried inject: %+v err=%v", out, err)
	}
}
