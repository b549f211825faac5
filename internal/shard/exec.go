package shard

import (
	"context"
	"fmt"

	"rdx/internal/core"
)

// CPExecutor runs jobs on one shard's control plane. Flows maps node
// names to the shard's own CodeFlows — every shard dials the fleet
// itself, so a publish here serializes only against this shard's pubMu,
// journal, and lease, never a sibling shard's. Single-node jobs take the
// direct InjectExtension path; an N-node job is one atomic broadcast
// (core.Group.Broadcast, the paper's rdx_broadcast): a stage failure on
// any node withholds every node's flip.
type CPExecutor struct {
	Flows map[string]*core.CodeFlow
}

// NewCPExecutor builds an executor over a shard's node flows. The control
// plane parameter is unused: the flows carry their own.
func NewCPExecutor(_ *core.ControlPlane, flows map[string]*core.CodeFlow) *CPExecutor {
	return &CPExecutor{Flows: flows}
}

// Execute implements Executor. A fenced node's error wins over any other
// (Broadcast reports it first), so the Shard worker's
// errors.Is(err, core.ErrFenced) fences the shard.
func (x *CPExecutor) Execute(ctx context.Context, j *Job) error {
	flows, err := x.resolve(j.Nodes)
	if err != nil {
		return err
	}
	if len(flows) == 1 {
		_, err := flows[0].InjectExtension(j.Ext, j.Hook)
		return err
	}
	_, err = core.Group(flows).Broadcast(j.Ext, core.BroadcastOptions{Hook: j.Hook})
	return err
}

// resolve maps job node names onto the shard's flows (all flows when the
// job names none). The returned order is unspecified for the empty case —
// multi-node jobs are broadcasts, which fan out anyway.
func (x *CPExecutor) resolve(nodes []string) ([]*core.CodeFlow, error) {
	if len(nodes) == 0 {
		if len(x.Flows) == 0 {
			return nil, fmt.Errorf("shard: executor has no node flows")
		}
		out := make([]*core.CodeFlow, 0, len(x.Flows))
		for _, cf := range x.Flows {
			out = append(out, cf)
		}
		return out, nil
	}
	out := make([]*core.CodeFlow, 0, len(nodes))
	for _, n := range nodes {
		cf, ok := x.Flows[n]
		if !ok {
			return nil, fmt.Errorf("shard: executor knows no node %q", n)
		}
		out = append(out, cf)
	}
	return out, nil
}
