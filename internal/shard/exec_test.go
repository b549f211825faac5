package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"rdx/internal/cluster"
	"rdx/internal/core"
	"rdx/internal/ext"
	"rdx/internal/node"
	"rdx/internal/rdma"
	"rdx/internal/xabi"
)

// execRig is one shard's control plane dialled to n served nodes, named
// n0..n(n-1), all exposing hook "h".
type execRig struct {
	cp    *core.ControlPlane
	nodes map[string]*node.Node
	flows map[string]*core.CodeFlow
}

func newExecRig(t *testing.T, n int) *execRig {
	t.Helper()
	fab := rdma.NewFabric()
	r := &execRig{cp: core.NewControlPlane(), nodes: map[string]*node.Node{}, flows: map[string]*core.CodeFlow{}}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i)
		nd, err := node.New(node.Config{ID: name, Hooks: []string{"h"}, Cores: 2, Latency: rdma.NoLatency(), Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		l, err := fab.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		go nd.Serve(l)
		conn, err := fab.Dial(name)
		if err != nil {
			t.Fatal(err)
		}
		cf, err := r.cp.CreateCodeFlow(conn)
		if err != nil {
			t.Fatal(err)
		}
		r.nodes[name], r.flows[name] = nd, cf
	}
	t.Cleanup(func() {
		for _, cf := range r.flows {
			cf.Close()
		}
		for _, nd := range r.nodes {
			nd.Close()
		}
	})
	return r
}

// verdicts runs hook "h" once on every node.
func (r *execRig) verdicts(t *testing.T) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for name, nd := range r.nodes {
		res, err := nd.ExecHook("h", make([]byte, xabi.CtxSize), nil)
		if err != nil {
			t.Fatalf("%s: exec: %v", name, err)
		}
		out[name] = int64(res.Verdict)
	}
	return out
}

func fleetJob(e *ext.Extension) *Job { return &Job{Tenant: "t", Hook: "h", Ext: e} }

// TestCPExecutorFleetJobAtomic pins the paper's rdx_broadcast semantics for
// a tenant's N-node publish: one node's connection is dead, so the job
// fails with its transport error and no healthy node flips — every node
// keeps executing the previous generation.
func TestCPExecutorFleetJobAtomic(t *testing.T) {
	r := newExecRig(t, 4)
	x := NewCPExecutor(r.cp, r.flows)
	gen1, gen2 := cluster.GenerationExt(ext.KindEBPF, 1, 50), cluster.GenerationExt(ext.KindEBPF, 2, 50)
	if err := x.Execute(context.Background(), fleetJob(gen1)); err != nil {
		t.Fatal(err)
	}
	want := r.verdicts(t)

	r.flows["n2"].Close()
	err := x.Execute(context.Background(), fleetJob(gen2))
	if !errors.Is(err, rdma.ErrClosed) {
		t.Fatalf("fleet job with a dead node: err = %v, want one wrapping rdma.ErrClosed", err)
	}
	for name, v := range r.verdicts(t) {
		if v != want[name] {
			t.Errorf("%s executes verdict %d after the failed job, want the previous generation's %d", name, v, want[name])
		}
	}
}

// TestCPExecutorFleetJobFenced pins the fencing decision through the
// broadcast: a deposed leader's N-node job fails with core.ErrFenced, so
// the shard running it goes fenced.
func TestCPExecutorFleetJobFenced(t *testing.T) {
	r := newExecRig(t, 4)
	r.cp.SetFence(func() error { return fmt.Errorf("lease stolen: %w", core.ErrFenced) })
	rt := NewRouter(Config{})
	defer rt.Close()
	rt.AddShard(0, NewCPExecutor(r.cp, r.flows))

	err := rt.Publish(context.Background(), fleetJob(cluster.GenerationExt(ext.KindEBPF, 1, 50)))
	if !errors.Is(err, core.ErrFenced) {
		t.Fatalf("deposed leader's fleet job: err = %v, want one wrapping core.ErrFenced", err)
	}
	if !rt.ShardDown(0) {
		t.Error("shard still up after a fenced fleet job")
	}
}
