package core

import (
	"errors"
	"testing"

	"rdx/internal/pipeline"
	"rdx/internal/rdma"
	"rdx/internal/xabi"
)

// TestInjectTracedEndToEnd is the observability acceptance path: one Inject
// must leave a complete trace — every pipeline stage from queue to publish,
// the wire verbs the job issued, and (when the target endpoint shares the
// recorder) the service-side spans — all under the job's single trace ID.
func TestInjectTracedEndToEnd(t *testing.T) {
	r := newRig(t, 2)
	// Share the control plane's recorder with the served endpoints so the
	// trace ID carried in the wire header stitches both sides together, as
	// rdxd -http does in production.
	for i, n := range r.nodes {
		n.RNIC.SetInstruments(nil, r.cp.Tracer, nodeID(i))
	}

	targets := make([]pipeline.Target, len(r.cfs))
	for i, cf := range r.cfs {
		targets[i] = cf
	}
	res, err := r.cp.Scheduler().Inject(pipeline.Request{
		Ext: constProg("traced", 7), Hook: "ingress", Targets: targets,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == 0 {
		t.Fatal("job has no trace ID")
	}

	evs := r.cp.Tracer.Trace(res.Trace)
	byLayerName := map[string]int{}
	for _, ev := range evs {
		byLayerName[ev.Layer+"/"+ev.Name]++
	}
	// All four pipeline stages: queue once per job, link/write/publish once
	// per node. Validation and JIT run inside the stage, in the artifact
	// cache, and have no span of their own.
	if byLayerName["pipeline/queue"] != 1 {
		t.Errorf("pipeline stage \"queue\" spans = %d, want 1 (trace: %v)", byLayerName["pipeline/queue"], byLayerName)
	}
	for _, stage := range []string{"link", "write", "publish"} {
		if byLayerName["pipeline/"+stage] != len(targets) {
			t.Errorf("pipeline stage %q spans = %d, want %d", stage, byLayerName["pipeline/"+stage], len(targets))
		}
	}
	// Staging writes one OpBatch chain per node; publish CASes the dispatch
	// pointer and fires a doorbell. All must carry the job's trace ID on both
	// the initiator ("wire") and the served ("endpoint") side.
	for _, layer := range []string{"wire", "endpoint"} {
		for _, verb := range []string{"batch", "cas", "write_imm"} {
			if byLayerName[layer+"/"+verb] < len(targets) {
				t.Errorf("%s %s spans = %d, want >= %d (trace: %v)",
					layer, verb, byLayerName[layer+"/"+verb], len(targets), byLayerName)
			}
		}
	}
	// A second job gets a different trace ID and its spans don't bleed in.
	res2, err := r.cp.Scheduler().Inject(pipeline.Request{
		Ext: constProg("traced2", 8), Hook: "ingress", Targets: targets,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace == res.Trace {
		t.Fatal("two jobs shared a trace ID")
	}
}

// TestPipelineFleetRolloutPartialFailure is the acceptance scenario: a
// non-atomic fleet rollout through the control plane's scheduler completes
// on every healthy node and reports the dead node's failure precisely —
// attempts exhausted, error classified, no wedged job.
func TestPipelineFleetRolloutPartialFailure(t *testing.T) {
	r := newRig(t, 8)
	dead := 3
	r.cfs[dead].Close() // endpoint down before the rollout begins

	targets := make([]pipeline.Target, len(r.cfs))
	for i, cf := range r.cfs {
		targets[i] = cf
	}
	res, err := r.cp.Scheduler().Inject(pipeline.Request{
		Ext: constProg("rollout", 42), Hook: "ingress", Targets: targets,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Published {
		t.Fatal("partial-failure rollout withheld publish; want partial completion")
	}

	failed := res.Failed()
	if len(failed) != 1 {
		t.Fatalf("failed outcomes = %+v, want exactly the dead node", failed)
	}
	if failed[0].Node != r.cfs[dead].NodeKey() {
		t.Errorf("failed node = %s, want %s", failed[0].Node, r.cfs[dead].NodeKey())
	}
	if !errors.Is(failed[0].Err, rdma.ErrClosed) {
		t.Errorf("failure cause = %v, want %v", failed[0].Err, rdma.ErrClosed)
	}
	if failed[0].Attempts != 3 { // 1 try + Retries(2)
		t.Errorf("attempts = %d, want 3", failed[0].Attempts)
	}

	for i, n := range r.nodes {
		if i == dead {
			continue
		}
		exec, execErr := n.ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
		if execErr != nil || exec.Verdict != 42 {
			t.Errorf("node %d after rollout: %+v err=%v", i, exec, execErr)
		}
		if res.Outcomes[i].Version == 0 {
			t.Errorf("node %d outcome missing version", i)
		}
	}

	st := r.cp.Scheduler().Stats()
	if st.Jobs != 1 || st.NodesInjected != 7 || st.NodesFailed != 1 {
		t.Errorf("stats = jobs %d injected %d failed %d, want 1/7/1", st.Jobs, st.NodesInjected, st.NodesFailed)
	}
	if st.Retries != 2 {
		t.Errorf("retries = %d, want 2", st.Retries)
	}
}

// TestBroadcastFeedsSchedulerStats checks that the collective path is
// really running on the scheduler and its spans land in the stats.
func TestBroadcastFeedsSchedulerStats(t *testing.T) {
	r := newRig(t, 4)
	if _, err := Group(r.cfs).Broadcast(constProg("bstat", 5), BroadcastOptions{Hook: "ingress"}); err != nil {
		t.Fatal(err)
	}
	st := r.cp.Scheduler().Stats()
	if st.Jobs != 1 || st.NodesInjected != 4 {
		t.Errorf("stats = jobs %d injected %d, want 1/4", st.Jobs, st.NodesInjected)
	}
	if st.Link.Count != 4 || st.Write.Count != 4 {
		t.Errorf("link/write span counts = %d/%d, want 4/4", st.Link.Count, st.Write.Count)
	}
	if st.Total.Max <= 0 {
		t.Error("total span not recorded")
	}
}
