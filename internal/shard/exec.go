package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"rdx/internal/controlha"
	"rdx/internal/core"
	"rdx/internal/pipeline"
)

// RebalanceState is the deterministic journal replay a rebalance hands
// from a departing shard to its receivers (see controlha.Replay). The
// alias keeps shard's Migrator interface free of a second import for
// callers that only wire executors together.
type RebalanceState = controlha.State

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

	// StateSource reads back the replayed state of the shard's
	// authoritative journal (typically controlha.Host.StateSource, which
	// pumps the standby first). Nil leaves the executor working but not
	// Migrator-capable: rebalances still move its keys, deployed state
	// stays behind.
	StateSource func() (*controlha.State, error)
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

// HandoffSnapshot implements Migrator: journal the rebalance barrier
// marker stamped with ringEpoch, confirm it replicated (a fenced append
// means this leader was deposed mid-rebalance — the typed error aborts
// the migration before any state leaves a shard it no longer owns), then
// read back the journal's replayed state and verify the snapshot closes
// with exactly our marker. The replay is deterministic, so two calls over
// the same journal yield identical state.
func (x *CPExecutor) HandoffSnapshot(ringEpoch uint64) (*RebalanceState, error) {
	if x.StateSource == nil {
		return nil, fmt.Errorf("shard: executor has no state source for handoff")
	}
	if err := x.CP.JournalHandoff(ringEpoch); err != nil {
		return nil, fmt.Errorf("handoff marker: %w", err)
	}
	st, err := x.StateSource()
	if err != nil {
		return nil, fmt.Errorf("handoff snapshot: %w", err)
	}
	if st.LastHandoffEpoch != ringEpoch {
		// The journal we read back does not end at our marker: either a
		// stale read or a concurrent handoff — both mean this snapshot is
		// not the shard's final word for this rebalance.
		return nil, fmt.Errorf("shard: handoff snapshot at ring epoch %d, want %d",
			st.LastHandoffEpoch, ringEpoch)
	}
	return st, nil
}

// AbsorbKeys implements Migrator: install the listed keys' slice of a
// departing shard's snapshot on this shard's control plane. Key tracking
// is by executor node name; the journal keys state by the node's stable
// NodeKey, so the translation goes through this executor's own flows — a
// named node this shard is not bound to simply has nowhere to land and is
// skipped. Versions and rollback stacks replay through State.ApplyTo;
// compiled artifacts resolve from the shared cache, so absorbing costs
// zero recompiles.
func (x *CPExecutor) AbsorbKeys(st *RebalanceState, keys []MigratedKey) error {
	if st == nil {
		return fmt.Errorf("shard: absorb of nil snapshot")
	}
	byKey := make(map[string]*core.CodeFlow, len(x.Flows))
	for _, cf := range x.Flows {
		byKey[cf.NodeKey()] = cf
	}
	// keep is the (nodeKey, hook) set the migrated keys expand to. A key
	// whose jobs named no nodes (or every node) covers all of this shard's
	// flows for its hook.
	keep := map[controlha.Key]bool{}
	for _, mk := range keys {
		if mk.All || len(mk.Nodes) == 0 {
			for nk := range byKey {
				keep[controlha.Key{Node: nk, Hook: mk.Hook}] = true
			}
			continue
		}
		for _, name := range mk.Nodes {
			if cf, ok := x.Flows[name]; ok {
				keep[controlha.Key{Node: cf.NodeKey(), Hook: mk.Hook}] = true
			}
		}
	}
	sub := st.Filter(func(node, hook string) bool {
		return keep[controlha.Key{Node: node, Hook: hook}]
	})
	sub.ApplyTo(x.CP, byKey)
	x.journalAbsorbed(sub)
	return nil
}

// journalAbsorbed re-journals an absorbed sub-state through this shard's
// own sink. Without this the migrated state would exist only in this
// control plane's in-memory bookkeeping: a later failover (TakeOver
// replays this shard's journal) or a second rebalance hop (HandoffSnapshot
// is also a journal replay) would silently drop everything this shard ever
// absorbed. History stacks re-journal as publish entries in stack order —
// replay rebuilds them byte-identically, tombstones included, and the
// version map follows from the same last-writer-wins rule that built the
// snapshot. Best-effort like every publish-path sink call; the next
// handoff's checked marker is where durability is enforced.
func (x *CPExecutor) journalAbsorbed(sub *RebalanceState) {
	sink := x.CP.Journal()
	if sink == nil {
		return
	}
	hooks := make([]controlha.Key, 0, len(sub.History))
	for k := range sub.History {
		hooks = append(hooks, k)
	}
	sort.Slice(hooks, func(i, j int) bool {
		if hooks[i].Node != hooks[j].Node {
			return hooks[i].Node < hooks[j].Node
		}
		return hooks[i].Hook < hooks[j].Hook
	})
	for _, k := range hooks {
		for _, d := range sub.History[k] {
			sink.JournalPublish(k.Node, k.Hook, d)
		}
	}
	for _, in := range sub.Open {
		sink.JournalStage(in.Node, in.Hook, in.Name, in.Digest, in.Version, in.Blob)
	}
}
