package controlha_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"rdx/internal/cluster"
	"rdx/internal/controlha"
	"rdx/internal/core"
	"rdx/internal/ext"
	"rdx/internal/pipeline"
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
		res, err := cp.Scheduler().Inject(pipeline.Request{Ext: e, Hook: "ingress", Targets: []pipeline.Target{cf}})
		if err != nil || res.Outcomes[0].Err != nil {
			t.Fatalf("stage %s: %v %+v", e.Name(), err, res)
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
