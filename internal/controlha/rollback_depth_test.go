package controlha_test

import (
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdx/internal/cluster"
	"rdx/internal/controlha"
	"rdx/internal/core"
	"rdx/internal/ext"
	"rdx/internal/faultnet"
	"rdx/internal/rdma"
	"rdx/internal/xabi"
)

// TestRollbackDepthBound: the leader's rollback stack, a replay of its
// journal and the standby's running fold all stop at core.RollbackDepth and
// forget the same entries, because all three push through
// core.PushDeployed; rollbacks walk the retained stack down and fail typed
// past it; and a claim still tombstones every retained entry of its blob.
func TestRollbackDepthBound(t *testing.T) {
	rig := newHARig(t, 1)
	cp, g, _ := rig.controller(t)
	if _, err := controlha.AttachLeader(cp, rig.hostQP(t), 1, time.Minute); err != nil {
		t.Fatal(err)
	}
	cf := g[0]
	key := controlha.Key{Node: cf.NodeKey(), Hook: "ingress"}

	// stacks returns the three views of the hook's rollback stack after
	// checking they are element-wise equal.
	stack := func(when string) []core.Deployed {
		t.Helper()
		if _, err := rig.host.Pump(); err != nil {
			t.Fatal(err)
		}
		live := cf.History("ingress")
		replayed, err := controlha.Replay(rig.host.JournalBytes())
		if err != nil {
			t.Fatal(err)
		}
		folded, err := rig.host.State()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(replayed.History[key], live) || !reflect.DeepEqual(folded.History[key], live) {
			t.Fatalf("%s: rollback stacks diverged:\n leader   %+v\n replayed %+v\n folded   %+v",
				when, live, replayed.History[key], folded.History[key])
		}
		return live
	}

	// stage publishes e through the scheduler: the path that double-buffers
	// the hook's blobs and claims the standby one as a delta target.
	stage := func(e *ext.Extension) {
		t.Helper()
		if _, err := (core.Group{cf}).Broadcast(e, core.BroadcastOptions{Hook: "ingress"}); err != nil {
			t.Fatalf("stage %s: %v", e.Name(), err)
		}
	}
	// Two resident generations, republished alternately: every publish
	// after the two stages is commit-only and nothing is ever claimed.
	gens := []*ext.Extension{cluster.GenerationExt(ext.KindEBPF, 1, 200), cluster.GenerationExt(ext.KindEBPF, 2, 200)}
	stage(gens[0])
	stage(gens[1])
	alternate := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if rep, err := cf.InjectExtension(gens[i%2], "ingress"); err != nil || !rep.CacheHit {
				t.Fatalf("commit-only republish: %+v, %v", rep, err)
			}
		}
	}
	alternate(3*core.RollbackDepth - 2)
	full := stack("after 3×RollbackDepth publishes")
	if len(full) != core.RollbackDepth {
		t.Fatalf("stack holds %d entries after %d publishes, want %d", len(full), 3*core.RollbackDepth, core.RollbackDepth)
	}
	if last := full[len(full)-1]; last.Digest != gens[1].Digest() || full[0].Version != last.Version-uint64(core.RollbackDepth-1) {
		t.Fatalf("stack does not hold the newest %d versions: %+v", core.RollbackDepth, full)
	}

	// RollbackDepth-1 rollbacks walk the retained stack down to one entry.
	for i := 1; i < core.RollbackDepth; i++ {
		to, err := cf.Rollback("ingress")
		if err != nil {
			t.Fatalf("rollback %d of %d: %v", i, core.RollbackDepth-1, err)
		}
		if want := full[len(full)-1-i]; to != want {
			t.Fatalf("rollback %d landed on %+v, want %+v", i, to, want)
		}
	}
	if left := stack("after RollbackDepth-1 rollbacks"); len(left) != 1 || left[0] != full[0] {
		t.Fatalf("stack after the rollbacks: %+v, want only %+v", left, full[0])
	}
	if _, err := cf.Rollback("ingress"); err == nil || !strings.Contains(err.Error(), "no prior version") {
		t.Fatalf("rollback past the bound: %v, want the no-prior-version error", err)
	}

	// Refill, then stage a third generation: it claims the standby blob,
	// and every retained entry of that blob — not only the newest — is
	// tombstoned in all three views.
	alternate(2 * core.RollbackDepth)
	stage(cluster.GenerationExt(ext.KindEBPF, 3, 200))
	after := stack("after a claim")
	if len(after) != core.RollbackDepth {
		t.Fatalf("stack holds %d entries after the claim", len(after))
	}
	top := after[len(after)-1]
	var claimed uint64
	for _, d := range after {
		if d.Reclaimed {
			claimed = d.Blob
		}
	}
	if claimed == 0 || top.Reclaimed {
		t.Fatalf("third generation claimed no standby blob (or tombstoned itself): %+v", after)
	}
	tombstones := 0
	for _, d := range after[:len(after)-1] {
		if d.Reclaimed != (d.Blob == claimed) {
			t.Fatalf("entry %+v: tombstone does not match claimed blob %#x", d, claimed)
		}
		if d.Reclaimed {
			tombstones++
		}
	}
	if tombstones < core.RollbackDepth/2-1 {
		t.Fatalf("claim tombstoned %d retained entries, want every one of the claimed blob's (≥ %d)", tombstones, core.RollbackDepth/2-1)
	}
}

// TestRollbackFailedCommitKeepsStack: a rollback whose commit dies on the
// wire leaves the rollback stack, the deployed-version map and the journal
// as they were — the pop and the journal entry follow the flip, never
// precede it — so a replay of the journal still gives the leader's stack,
// and a healthy rollback afterwards lands on v1.
func TestRollbackFailedCommitKeepsStack(t *testing.T) {
	rig := newHARig(t, 1)
	cp := core.NewControlPlaneLabeled(rig.arts, rig.reg, "")
	ld, err := controlha.AttachLeader(cp, rig.hostQP(t), 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// The node link is a ReconnQP over faultnet connections; while down is
	// set it cannot redial, so a killed connection fails the verb in flight.
	var (
		mu   sync.Mutex
		live *faultnet.Conn
		down atomic.Bool
	)
	rq, err := rdma.NewReconnQP(rdma.ReconnConfig{
		Dial: func() (net.Conn, error) {
			if down.Load() {
				return nil, faultnet.ErrInjected
			}
			c, err := rig.fab.Dial(rig.nodes[0].ID)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			defer mu.Unlock()
			live = faultnet.Wrap(c, faultnet.Options{})
			return live, nil
		},
		Logf: func(string, ...interface{}) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	cf, err := cp.CreateCodeFlowQP(rq)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cf.Close() })

	v1, v2 := cluster.GenerationExt(ext.KindEBPF, 1, 200), cluster.GenerationExt(ext.KindEBPF, 2, 200)
	for _, e := range []*ext.Extension{v1, v2} {
		if _, err := cf.InjectExtension(e, "ingress"); err != nil {
			t.Fatal(err)
		}
	}
	onV2, _ := cp.DeployedVersion(cf.NodeKey(), "ingress")
	entries := ld.Journal.Len()

	down.Store(true)
	mu.Lock()
	live.SetFailAfterOps(live.Ops() + 1)
	mu.Unlock()
	if to, err := cf.Rollback("ingress"); err == nil {
		t.Fatalf("rollback over a killed link landed on %+v", to)
	}

	stack := cf.History("ingress")
	if len(stack) != 2 {
		t.Fatalf("failed rollback left %d stack entries, want 2", len(stack))
	}
	if dv, _ := cp.DeployedVersion(cf.NodeKey(), "ingress"); dv != onV2 {
		t.Fatalf("failed rollback moved the deployed-version map: %+v, want %+v", dv, onV2)
	}
	if n := ld.Journal.Len(); n != entries {
		t.Fatalf("failed rollback journaled %d entries", n-entries)
	}
	for _, e := range ld.Journal.Entries() {
		if e.Type == controlha.EntryRollback {
			t.Fatalf("journal holds a rollback entry for a rollback that never flipped: %+v", e)
		}
	}
	replayed, err := controlha.Replay(ld.Journal.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := replayed.History[controlha.Key{Node: cf.NodeKey(), Hook: "ingress"}]; !reflect.DeepEqual(got, stack) {
		t.Fatalf("replayed stack diverged from the leader's:\n replayed %+v\n leader   %+v", got, stack)
	}

	down.Store(false)
	to, err := cf.Rollback("ingress")
	if err != nil || to != stack[0] {
		t.Fatalf("healthy rollback after the failure: %+v, %v; want %+v", to, err, stack[0])
	}
	if out, err := rig.nodes[0].ExecHook("ingress", make([]byte, xabi.CtxSize), nil); err != nil || out.Verdict != 101 {
		t.Fatalf("node after the healthy rollback: %+v, %v; want v1's verdict 101", out, err)
	}
}
