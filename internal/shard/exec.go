package shard

import (
	"context"
	"errors"
	"fmt"

	"rdx/internal/core"
	"rdx/internal/pipeline"
)

// CPExecutor runs jobs on one shard's control plane. Flows maps node
// names to the shard's own CodeFlows — every shard dials the fleet
// itself, so a publish here serializes only against this shard's pubMu,
// journal, and lease, never a sibling shard's. Single-node jobs take the
// direct InjectExtension path; multi-node jobs fan out through the
// shard's injection scheduler (one validate/JIT per digest, parallel
// staging, coalesced doorbells).
type CPExecutor struct {
	CP    *core.ControlPlane
	Flows map[string]*core.CodeFlow
}

// NewCPExecutor builds an executor over a shard's control plane and its
// node flows.
func NewCPExecutor(cp *core.ControlPlane, flows map[string]*core.CodeFlow) *CPExecutor {
	return &CPExecutor{CP: cp, Flows: flows}
}

// Execute implements Executor.
func (x *CPExecutor) Execute(ctx context.Context, j *Job) error {
	flows, err := x.resolve(j.Nodes)
	if err != nil {
		return err
	}
	if len(flows) == 1 {
		_, err := flows[0].InjectExtension(j.Ext, j.Hook)
		return err
	}
	targets := make([]pipeline.Target, len(flows))
	for i, cf := range flows {
		targets[i] = cf
	}
	res, err := x.CP.Scheduler().Inject(pipeline.Request{Ext: j.Ext, Hook: j.Hook, Targets: targets})
	if err != nil {
		return err
	}
	// Surface a fenced outcome over any other per-node failure: it means
	// this shard's whole key range is dead, and the Shard worker loop
	// keys its fencing decision off errors.Is(err, core.ErrFenced).
	var first error
	for i := range res.Outcomes {
		oErr := res.Outcomes[i].Err
		if oErr == nil {
			continue
		}
		if errors.Is(oErr, core.ErrFenced) {
			return oErr
		}
		if first == nil {
			first = oErr
		}
	}
	return first
}

// resolve maps job node names onto the shard's flows (all flows when the
// job names none). The returned order is unspecified for the empty case —
// multi-node jobs go through the scheduler, which fans out anyway.
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
