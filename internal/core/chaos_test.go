package core

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"rdx/internal/faultnet"
	"rdx/internal/pipeline"
	"rdx/internal/rdma"
	"rdx/internal/xabi"
)

// Chaos tests: reliability under transport faults (paper §7, future work
// #4). The invariants: (1) faults surface as errors, never hangs; (2) a
// failed deployment publishes nothing — the data plane keeps executing the
// previous version; (3) a fresh CodeFlow over a new connection recovers.

func TestChaosConnectionDiesMidDeploy(t *testing.T) {
	r := newRig(t, 1)
	good := r.cfs[0]
	if _, err := good.InjectExtension(constProg("v1", 7), "ingress"); err != nil {
		t.Fatal(err)
	}

	// A second CodeFlow whose connection dies a few verbs into the next
	// deployment (armed after discovery so setup always completes).
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
	fc.SetFailAfterOps(fc.Ops() + 5)

	deployErr := error(nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Use a distinct program so the resident fast path cannot absorb
		// the deploy before the fault fires.
		_, deployErr = flaky.InjectExtension(constProg("v2", 8), "ingress")
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("deploy over dying connection hung")
	}
	if deployErr == nil {
		t.Fatal("deploy over dying connection succeeded")
	}

	// Invariant: the data plane still runs v1; no torn/partial publish.
	res, err := r.nodes[0].ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if err != nil || res.Verdict != 7 {
		t.Fatalf("data plane after failed deploy: %+v err=%v", res, err)
	}

	// Recovery: a fresh CodeFlow deploys fine.
	conn2, err := r.fab.Dial(nodeID(0))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := r.cp.CreateCodeFlow(conn2)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.InjectExtension(constProg("v3", 9), "ingress"); err != nil {
		t.Fatal(err)
	}
	res, _ = r.nodes[0].ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if res.Verdict != 9 {
		t.Errorf("post-recovery verdict = %d", res.Verdict)
	}
}

func TestChaosBroadcastPartialFailureAbortsCleanly(t *testing.T) {
	r := newRig(t, 3)
	// Baseline on all nodes.
	if _, err := Group(r.cfs).Broadcast(constProg("base", 50), BroadcastOptions{Hook: "ingress"}); err != nil {
		t.Fatal(err)
	}

	// Replace node 1's CodeFlow with one whose transport dies during the
	// staging phase of the next broadcast.
	conn, err := r.fab.Dial(nodeID(1))
	if err != nil {
		t.Fatal(err)
	}
	fc := faultnet.Wrap(conn, faultnet.Options{})
	flaky, err := r.cp.CreateCodeFlow(fc)
	if err != nil {
		t.Fatal(err)
	}
	defer flaky.Close()
	fc.SetFailAfterOps(fc.Ops() + 3)
	group := Group{r.cfs[0], flaky, r.cfs[2]}

	_, err = group.Broadcast(constProg("next", 60), BroadcastOptions{Hook: "ingress"})
	if err == nil {
		t.Fatal("broadcast with dying member succeeded")
	}

	// Stage-phase failure aborts before ANY publish: every node must still
	// run the baseline.
	for i, n := range r.nodes {
		res, execErr := n.ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
		if execErr != nil || res.Verdict != 50 {
			t.Errorf("node %d after aborted broadcast: %+v err=%v", i, res, execErr)
		}
	}
}

func TestChaosSlowLinkStillCorrect(t *testing.T) {
	r := newRig(t, 1)
	conn, err := r.fab.Dial(nodeID(0))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := r.cp.CreateCodeFlow(faultnet.Wrap(conn, faultnet.Options{DelayPerOp: 200 * time.Microsecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	rep, err := slow.InjectExtension(constProg("slow", 3), "ingress")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total < 2*time.Millisecond {
		t.Errorf("deploy over slow link took %v; delay not applied?", rep.Total)
	}
	res, err := r.nodes[0].ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if err != nil || res.Verdict != 3 {
		t.Errorf("res=%+v err=%v", res, err)
	}
}

func TestChaosCorruptedFramesRejected(t *testing.T) {
	// A corrupted request frame must not crash the endpoint or corrupt
	// node memory; the QP surfaces an error or the op simply fails.
	r := newRig(t, 1)
	conn, err := r.fab.Dial(nodeID(0))
	if err != nil {
		t.Fatal(err)
	}
	qp := rdma.NewQP(faultnet.Wrap(conn, faultnet.Options{CorruptOp: 2}))
	defer qp.Close()
	mrs, err := qp.QueryMRs()
	if err != nil {
		t.Skipf("corruption hit the discovery op: %v", err)
	}
	var ctrl rdma.MR
	for _, mr := range mrs {
		if mr.Name == "rdx:ctrl" {
			ctrl = mr
		}
	}
	// This write's frame is corrupted in flight; any outcome except a hang
	// or an endpoint crash is acceptable.
	errc := make(chan error, 1)
	go func() { errc <- qp.Write(ctrl.RKey, ctrl.Addr, []byte{1, 2, 3, 4}) }()
	select {
	case <-errc:
	case <-time.After(5 * time.Second):
		t.Fatal("corrupted frame hung the QP")
	}
	// The endpoint must still serve healthy connections.
	conn2, _ := r.fab.Dial(nodeID(0))
	qp2 := rdma.NewQP(conn2)
	defer qp2.Close()
	if _, err := qp2.QueryMRs(); err != nil {
		t.Errorf("endpoint unhealthy after corrupted frame: %v", err)
	}
}

// TestChaosReconnQPBroadcastSurvivesKills is this PR's acceptance test:
// faultnet kills every node's first connection mid-stream (truncating a
// frame, often inside the staging WriteBatch), yet a ReconnQP-backed
// pipeline broadcast to 8 nodes completes within its deadline — every node
// publishes, no goroutine leaks, no hangs.
func TestChaosReconnQPBroadcastSurvivesKills(t *testing.T) {
	const fleet = 8
	r := newRig(t, fleet)
	// The kills tear frames mid-stream on purpose; keep endpoint protocol
	// logging out of the test output.
	for _, n := range r.nodes {
		n.RNIC.SetLogf(nil)
	}
	before := runtime.NumGoroutine()

	var cfs []*CodeFlow
	var arm []func()
	for i := 0; i < fleet; i++ {
		i := i
		var mu sync.Mutex
		var conns []*faultnet.Conn
		dial := func() (net.Conn, error) {
			c, err := r.fab.Dial(nodeID(i))
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
			Dial:        dial,
			VerbTimeout: 2 * time.Second,
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		cf, err := r.cp.CreateCodeFlowQP(rq)
		if err != nil {
			t.Fatal(err)
		}
		cfs = append(cfs, cf)
		arm = append(arm, func() {
			// Kill the live connection a staggered number of payload bytes
			// into the broadcast: early nodes die inside the staging batch,
			// later ones around the publish transaction.
			mu.Lock()
			fc := conns[0]
			fc.SetKillAfterBytes(fc.BytesWritten() + 100 + int64(i)*25)
			mu.Unlock()
		})
	}
	closed := false
	closeAll := func() {
		if closed {
			return
		}
		closed = true
		for _, cf := range cfs {
			cf.Close()
		}
	}
	defer closeAll()
	for _, f := range arm {
		f()
	}

	targets := make([]pipeline.Target, len(cfs))
	for i, cf := range cfs {
		targets[i] = cf
	}
	var res *pipeline.Result
	var injErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, injErr = r.cp.sched.Inject(pipeline.Request{
			Ext:     constProg("chaos-bcast", 77),
			Hook:    "ingress",
			Targets: targets,
		})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("broadcast over dying connections hung past its deadline")
	}
	if injErr != nil {
		t.Fatal(injErr)
	}
	for i, o := range res.Outcomes {
		if o.Err != nil {
			t.Errorf("node %d never recovered: %v (attempts %d)", i, o.Err, o.Attempts)
		}
	}
	if !res.Published {
		t.Fatal("broadcast published nowhere despite reconnects")
	}
	for i, n := range r.nodes {
		out, execErr := n.ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
		if execErr != nil || out.Verdict != 77 {
			t.Errorf("node %d after chaos broadcast: %+v err=%v", i, out, execErr)
		}
	}

	// No goroutine leaks: dead readers, killed ServeConn handlers, and
	// redialed connections must all wind down once the flows close.
	closeAll()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after close; leak in the reconnect path?", before, runtime.NumGoroutine())
}

func TestChaosRepeatedFaultsNeverWedgeTheNode(t *testing.T) {
	// Inject over many short-lived flaky connections; the node must stay
	// healthy and its extension state consistent throughout.
	r := newRig(t, 1)
	if _, err := r.cfs[0].InjectExtension(constProg("stable", 42), "ingress"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		conn, err := r.fab.Dial(nodeID(0))
		if err != nil {
			t.Fatal(err)
		}
		cf, err := r.cp.CreateCodeFlow(faultnet.Wrap(conn, faultnet.Options{FailAfterOps: int64(10 + i)}))
		if err != nil {
			continue // discovery died; acceptable
		}
		cf.InjectExtension(constProg("churn", int32(100+i)), "ingress")
		cf.Close()
	}
	res, err := r.nodes[0].ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
	if err != nil && !errors.Is(err, nil) {
		t.Fatalf("node wedged: %v", err)
	}
	// Whatever version survived, it must be one that was fully published.
	if res.Verdict != 42 && (res.Verdict < 100 || res.Verdict > 119) {
		t.Errorf("verdict %d is not any published version", res.Verdict)
	}
}
