package core

import (
	"errors"
	"strings"
	"testing"

	"rdx/internal/rdma"
	"rdx/internal/xabi"
)

// TestInjectTracedEndToEnd is the observability acceptance path: one
// broadcast must leave a complete trace — every pipeline stage from link to
// publish, the wire verbs the job issued, and (when the target endpoint
// shares the recorder) the service-side spans — all under the job's single
// trace ID.
func TestInjectTracedEndToEnd(t *testing.T) {
	r := newRig(t, 2)
	// Share the control plane's recorder with the served endpoints so the
	// trace ID carried in the wire header stitches both sides together, as
	// rdxd -http does in production.
	for i, n := range r.nodes {
		n.RNIC.SetInstruments(nil, r.cp.Tracer, nodeID(i))
	}

	rep, err := Group(r.cfs).Broadcast(constProg("traced", 7), BroadcastOptions{Hook: "ingress"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == 0 {
		t.Fatal("job has no trace ID")
	}

	evs := r.cp.Tracer.Trace(rep.Trace)
	byLayerName := map[string]int{}
	for _, ev := range evs {
		byLayerName[ev.Layer+"/"+ev.Name]++
	}
	// The pipeline stages: link/write/publish once per node, and no queue,
	// since jobs wait in no queue. Validation and JIT run inside the stage,
	// in the artifact cache, and have no span of their own.
	if n := byLayerName["pipeline/queue"]; n != 0 {
		t.Errorf("pipeline stage \"queue\" spans = %d, want 0 (trace: %v)", n, byLayerName)
	}
	for _, stage := range []string{"link", "write", "publish"} {
		if byLayerName["pipeline/"+stage] != len(r.cfs) {
			t.Errorf("pipeline stage %q spans = %d, want %d", stage, byLayerName["pipeline/"+stage], len(r.cfs))
		}
	}
	// Staging writes one OpBatch chain per node; publish CASes the dispatch
	// pointer and fires a doorbell. All must carry the job's trace ID on both
	// the initiator ("wire") and the served ("endpoint") side.
	for _, layer := range []string{"wire", "endpoint"} {
		for _, verb := range []string{"batch", "cas", "write_imm"} {
			if byLayerName[layer+"/"+verb] < len(r.cfs) {
				t.Errorf("%s %s spans = %d, want >= %d (trace: %v)",
					layer, verb, byLayerName[layer+"/"+verb], len(r.cfs), byLayerName)
			}
		}
	}
	// A second job gets a different trace ID and its spans don't bleed in.
	rep2, err := Group(r.cfs).Broadcast(constProg("traced2", 8), BroadcastOptions{Hook: "ingress"})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Trace == rep.Trace {
		t.Fatal("two jobs shared a trace ID")
	}
}

// wantGeneration fails t unless every node's ingress returns verdict.
func wantGeneration(t *testing.T, r *rig, verdict uint64) {
	t.Helper()
	for i, n := range r.nodes {
		exec, err := n.ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
		if err != nil || exec.Verdict != verdict {
			t.Errorf("node %d: %+v err=%v, want verdict %d", i, exec, err, verdict)
		}
	}
}

// TestPipelineFleetRolloutPartialFailure is the acceptance scenario: a
// fleet rollout through the control plane's scheduler with one dead node
// withholds every flip — the live nodes keep the old generation — and
// reports the dead node's failure precisely: attempts exhausted, error
// classified, no wedged job.
func TestPipelineFleetRolloutPartialFailure(t *testing.T) {
	r := newRig(t, 8)
	if _, err := Group(r.cfs).Broadcast(constProg("old", 41), BroadcastOptions{Hook: "ingress"}); err != nil {
		t.Fatal(err)
	}
	dead := 3
	r.cfs[dead].Close() // endpoint down before the rollout begins

	rep, err := Group(r.cfs).Broadcast(constProg("rollout", 42), BroadcastOptions{Hook: "ingress"})
	if !errors.Is(err, rdma.ErrClosed) {
		t.Fatalf("rollout with a dead node: %v, want %v", err, rdma.ErrClosed)
	}
	o := rep.Outcomes[dead]
	if o.Node != r.cfs[dead].NodeKey() || !errors.Is(o.Err, rdma.ErrClosed) {
		t.Errorf("dead node's outcome = %+v, want %s failing with %v", o, r.cfs[dead].NodeKey(), rdma.ErrClosed)
	}
	if o.Attempts != 3 { // 1 try + 2 retries
		t.Errorf("attempts = %d, want 3", o.Attempts)
	}
	wantGeneration(t, r, 41)

	reg := r.cp.Registry
	if jobs, failed := reg.Counter("pipeline.jobs").Value(), reg.Counter("pipeline.jobs_failed").Value(); jobs != 2 || failed != 1 {
		t.Errorf("pipeline.jobs = %d, jobs_failed = %d, want 2 and 1", jobs, failed)
	}
	if got := reg.Counter("pipeline.retries").Value(); got != 2 {
		t.Errorf("pipeline.retries = %d, want 2", got)
	}
}

// TestBroadcastReportCarriesOutcomes checks what a failed broadcast
// reports: the error names the dead node, every node has an outcome and
// only the dead one's carries the cause, the job's trace holds a link span
// for every node that staged, and no node left the old generation.
func TestBroadcastReportCarriesOutcomes(t *testing.T) {
	r := newRig(t, 3)
	if _, err := Group(r.cfs).Broadcast(constProg("old", 1), BroadcastOptions{Hook: "ingress"}); err != nil {
		t.Fatal(err)
	}
	// The closed node is last, so the nodes before it have started staging
	// when its stage fails, and none of them is skipped.
	closed := r.cfs[2]
	closed.Close()

	rep, err := Group(r.cfs).Broadcast(constProg("new", 2), BroadcastOptions{Hook: "ingress"})
	if err == nil || !strings.Contains(err.Error(), closed.NodeKey()) {
		t.Fatalf("broadcast error = %v, want one naming %s", err, closed.NodeKey())
	}
	if len(rep.Outcomes) != 3 {
		t.Fatalf("outcomes = %+v, want 3", rep.Outcomes)
	}
	for i, o := range rep.Outcomes {
		if want := i == 2; (o.Err != nil) != want || (want && !errors.Is(o.Err, rdma.ErrClosed)) {
			t.Errorf("outcome %d = %+v, want the cause on the closed node only", i, o)
		}
	}
	linked := map[string]bool{}
	for _, ev := range r.cp.Tracer.Trace(rep.Trace) {
		if ev.Layer == "pipeline" && ev.Name == "link" {
			linked[ev.Node] = true
		}
	}
	for _, cf := range r.cfs[:2] {
		if !linked[cf.NodeKey()] {
			t.Errorf("no link span for staged node %s in trace %d", cf.NodeKey(), rep.Trace)
		}
	}
	wantGeneration(t, r, 1)
}

// TestBroadcastFeedsSchedulerStats checks that the collective path is
// really running on the scheduler and its spans land in the registry.
func TestBroadcastFeedsSchedulerStats(t *testing.T) {
	r := newRig(t, 4)
	if _, err := Group(r.cfs).Broadcast(constProg("bstat", 5), BroadcastOptions{Hook: "ingress"}); err != nil {
		t.Fatal(err)
	}
	snap := r.cp.Registry.Snapshot()
	if jobs, nodes := snap.Counters["pipeline.jobs"], snap.Counters["pipeline.nodes_injected"]; jobs != 1 || nodes != 4 {
		t.Errorf("pipeline.jobs = %d, nodes_injected = %d, want 1 and 4", jobs, nodes)
	}
	if link, write := snap.Histograms["pipeline.span.link"].Count, snap.Histograms["pipeline.span.write"].Count; link != 4 || write != 4 {
		t.Errorf("link/write span counts = %d/%d, want 4/4", link, write)
	}
	if snap.Histograms["pipeline.span.total"].Max <= 0 {
		t.Error("total span not recorded")
	}
}
