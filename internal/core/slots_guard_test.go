package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"rdx/internal/ext"
	"rdx/internal/pipeline"
	"rdx/internal/xabi"
)

// TestRollbackRefusesReclaimedVersion pins the history-tombstone behavior:
// when a delta stage claims a blob that sits in another hook's rollback
// stack (published there via the resident fast path), that stack keeps its
// depth, and rolling back onto the reclaimed version fails with a cause —
// never a silent skip, a misleading "no prior version", or a flip onto
// overwritten bytes.
func TestRollbackRefusesReclaimedVersion(t *testing.T) {
	r := newRig(t, 1, "ingress", "egress")
	cf := r.cfs[0]

	// v1 lands on ingress (blob B1), then repeat-deploys onto egress via
	// the resident fast path — B1 is now in both hooks' histories.
	v1 := bigProg("tomb-v1", 1)
	injectOn(t, r.cp, cf, v1)
	if rep, err := cf.InjectExtension(v1, "egress"); err != nil || !rep.CacheHit {
		t.Fatalf("resident repeat-deploy on egress: rep=%+v err=%v", rep, err)
	}
	// Move egress off B1 so the blob is dead everywhere and claimable.
	if _, err := cf.InjectExtension(constProg("tomb-egress", 9), "egress"); err != nil {
		t.Fatal(err)
	}
	// v2 displaces B1 into ingress's standby; v3's stage claims B1 as its
	// delta target, tombstoning B1's history entries on BOTH hooks.
	injectOn(t, r.cp, cf, bigProg("tomb-v2", 2))
	injectOn(t, r.cp, cf, bigProg("tomb-v3", 3))
	if got := r.cp.Registry.Counter("core.history.reclaimed").Value(); got < 2 {
		t.Fatalf("core.history.reclaimed = %d, want >= 2 (v1 entry on each hook)", got)
	}

	// Egress's stack kept its depth...
	if h := cf.History("egress"); len(h) != 2 {
		t.Fatalf("egress history depth = %d, want 2 (tombstoned, not deleted)", len(h))
	}
	// ...and rollback onto the reclaimed version refuses with a cause.
	_, err := cf.Rollback("egress")
	if err == nil || !strings.Contains(err.Error(), "reclaimed") {
		t.Fatalf("rollback onto a claimed blob = %v, want reclaimed-version error", err)
	}
	// Egress must still execute its current version untouched.
	out, execErr := r.nodes[0].ExecHook("egress", make([]byte, xabi.CtxSize), nil)
	if execErr != nil || out.Verdict != 9 {
		t.Fatalf("egress after refused rollback: %+v err=%v", out, execErr)
	}
}

// TestResidentFastPathVsDeltaClaimRace hammers the TOCTOU surface between
// the commit-only resident fast path and claimStandby under -race: one
// goroutine rotates versions through the staging pipeline on ingress
// (claiming standbys for delta writes) while another repeat-deploys the
// same digests onto egress (snapshotting resident blob addresses and
// CASing dispatch pointers onto them). The claim and the commit-only
// dispatch both serialize on pubMu, so whatever either hook ends up
// dispatching must be byte-exact one complete version — never a blob torn
// by a concurrent delta rewrite.
func TestResidentFastPathVsDeltaClaimRace(t *testing.T) {
	r := newRig(t, 1, "ingress", "egress")
	cf := r.cfs[0]

	vs := []*ext.Extension{bigProg("claimrace-a", 41), bigProg("claimrace-b", 42), bigProg("claimrace-c", 43)}
	for _, e := range vs {
		injectOn(t, r.cp, cf, e)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // stager: keeps claiming ingress standbys for delta writes
		defer wg.Done()
		for i := 0; i < 20; i++ {
			res, err := r.cp.Scheduler().Inject(pipeline.Request{
				Ext: vs[i%len(vs)], Hook: "ingress",
				Targets: []pipeline.Target{cf}, Deadline: 10 * time.Second,
			})
			if err != nil {
				t.Error(err)
				return
			}
			if oerr := res.Outcomes[0].Err; oerr != nil {
				t.Errorf("staged inject %d: %v", i, oerr)
				return
			}
		}
	}()
	go func() { // committer: repeat-deploys the same digests onto egress
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := cf.InjectExtension(vs[i%len(vs)], "egress"); err != nil {
				t.Errorf("resident inject %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	var images [][]byte
	for _, e := range vs {
		bin, err := r.cp.JITCompileCode(e, cf.Arch)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, bin.Code)
	}
	for _, hook := range []string{"ingress", "egress"} {
		_, code := readDispatchedCode(t, cf, hook)
		match := false
		for _, img := range images {
			if bytes.Equal(code, img) {
				match = true
			}
		}
		if !match {
			t.Fatalf("hook %q dispatches code matching no racing version: torn by a concurrent delta claim", hook)
		}
	}
}
