package controlha_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdx/internal/artifact"
	"rdx/internal/cluster"
	"rdx/internal/controlha"
	"rdx/internal/core"
	"rdx/internal/ext"
	"rdx/internal/node"
	"rdx/internal/pipeline"
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
	"rdx/internal/xabi"
)

// haRig is a fleet of served nodes plus a standby host, all on one fabric.
type haRig struct {
	fab   *rdma.Fabric
	host  *controlha.Host
	nodes []*node.Node
	reg   *telemetry.Registry
	arts  *artifact.Cache
}

func newHARig(t *testing.T, n int) *haRig {
	t.Helper()
	r := &haRig{fab: rdma.NewFabric(), reg: telemetry.NewRegistry()}
	r.arts = artifact.NewCache(artifact.Config{Registry: r.reg})
	h, err := controlha.NewHostWith(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	r.host = h
	hl, err := r.fab.Listen("standby")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(hl)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ha-%d", i)
		nd, err := node.New(node.Config{
			ID: id, Hooks: []string{"ingress"}, Cores: 2, Latency: rdma.NoLatency(), Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Close)
		l, err := r.fab.Listen(id)
		if err != nil {
			t.Fatal(err)
		}
		go nd.Serve(l)
		r.nodes = append(r.nodes, nd)
	}
	return r
}

// controller binds a fresh control plane (sharing the rig's artifact cache)
// to every node, returning the plane, the broadcast group, and the flow map
// keyed by NodeKey for journal replay.
func (r *haRig) controller(t *testing.T) (*core.ControlPlane, core.Group, map[string]*core.CodeFlow) {
	t.Helper()
	cp := core.NewControlPlaneLabeled(r.arts, r.reg, "")
	flows := map[string]*core.CodeFlow{}
	var g core.Group
	for _, nd := range r.nodes {
		conn, err := r.fab.Dial(nd.ID)
		if err != nil {
			t.Fatal(err)
		}
		cf, err := cp.CreateCodeFlow(conn)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cf.Close() })
		flows[cf.NodeKey()] = cf
		g = append(g, cf)
	}
	return cp, g, flows
}

func (r *haRig) hostQP(t *testing.T) rdma.Verbs {
	t.Helper()
	conn, err := r.fab.Dial("standby")
	if err != nil {
		t.Fatal(err)
	}
	return rdma.NewQP(conn)
}

// TestReplayReconstructsLiveControlPlane is the determinism acceptance test:
// replaying the replicated journal on a fresh ControlPlane reproduces the
// leader's deployed-version map and rollback stacks exactly, a second replay
// of the same bytes is identical, and re-driving a deployment through the
// successor hits the shared artifact cache with zero new compiles.
func TestReplayReconstructsLiveControlPlane(t *testing.T) {
	rig := newHARig(t, 2)
	cp1, g1, _ := rig.controller(t)
	if _, err := controlha.AttachLeader(cp1, rig.hostQP(t), 1, time.Minute); err != nil {
		t.Fatal(err)
	}

	// A history with texture: two generations everywhere, a third on node 0
	// only, then a rollback on node 0.
	e1 := cluster.GenerationExt(ext.KindEBPF, 1, 200)
	e2 := cluster.GenerationExt(ext.KindEBPF, 2, 200)
	e3 := cluster.GenerationExt(ext.KindEBPF, 3, 200)
	for _, cf := range g1 {
		if _, err := cf.InjectExtension(e1, "ingress"); err != nil {
			t.Fatal(err)
		}
		if _, err := cf.InjectExtension(e2, "ingress"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g1[0].InjectExtension(e3, "ingress"); err != nil {
		t.Fatal(err)
	}
	if _, err := g1[0].Rollback("ingress"); err != nil {
		t.Fatal(err)
	}

	if _, err := rig.host.Pump(); err != nil {
		t.Fatal(err)
	}
	data := rig.host.JournalBytes()
	s1, err := controlha.Replay(data)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := controlha.Replay(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("two replays of the same bytes diverged")
	}

	// The replayed version map is byte-identical to the live one.
	live := cp1.DeployedVersions()
	if len(live) != len(s1.Versions) {
		t.Fatalf("replayed %d version entries, live has %d", len(s1.Versions), len(live))
	}
	for k, dv := range live {
		if got := s1.Versions[controlha.Key{Node: k.Node, Hook: k.Hook}]; got != dv {
			t.Errorf("version %v: replayed %+v, live %+v", k, got, dv)
		}
	}
	// And so is each node's rollback stack.
	for _, cf := range g1 {
		want := cf.History("ingress")
		got := s1.History[controlha.Key{Node: cf.NodeKey(), Hook: "ingress"}]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("history %s:\nreplayed %+v\nlive     %+v", cf.NodeKey(), got, want)
		}
	}
	if len(s1.Open) != 0 {
		t.Errorf("open intents after fully published history: %+v", s1.Open)
	}

	// Install the state on a fresh plane: the maps transfer verbatim, and a
	// re-driven deployment through the successor costs zero new compiles.
	cp2, g2, flows2 := rig.controller(t)
	s1.ApplyTo(cp2, flows2)
	if !reflect.DeepEqual(cp2.DeployedVersions(), live) {
		t.Error("restored version map differs from the leader's")
	}
	compiles := rig.reg.Counter("artifact.compile.invocations").Value()
	if _, err := g2[1].InjectExtension(e3, "ingress"); err != nil {
		t.Fatal(err)
	}
	if got := rig.reg.Counter("artifact.compile.invocations").Value(); got != compiles {
		t.Errorf("re-drive recompiled: %d -> %d", compiles, got)
	}
}

// TestFailoverChaosUnderBroadcast is the chaos acceptance test (run it with
// -race): a leader broadcasts generation after generation to the fleet while
// readers hammer every node's hook; mid-stream a standby steals the lease
// and replays the journal. The deposed leader's in-flight and subsequent
// publishes must fail with core.ErrFenced and must not flip any pointer to
// a torn blob — every ExecHook during the whole run returns a whole
// generation's verdict — and after the successor re-drives, the fleet
// converges on exactly one version.
func TestFailoverChaosUnderBroadcast(t *testing.T) {
	rig := newHARig(t, 3)
	cp1, g1, _ := rig.controller(t)
	if _, err := controlha.AttachLeader(cp1, rig.hostQP(t), 1, time.Minute); err != nil {
		t.Fatal(err)
	}

	gen := func(i int) *ext.Extension { return cluster.GenerationExt(ext.KindEBPF, i, 200) }

	// Readers: every node's hook must always execute a whole blob — the
	// initial pass-through or some generation's verdict, never garbage.
	stopRead := make(chan struct{})
	var readers sync.WaitGroup
	var torn atomic.Int64
	for _, nd := range rig.nodes {
		readers.Add(1)
		go func(nd *node.Node) {
			defer readers.Done()
			ctx := make([]byte, xabi.CtxSize)
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				res, err := nd.ExecHook("ingress", ctx, nil)
				if err != nil || (res.Verdict != xabi.VerdictPass && (res.Verdict < 100 || res.Verdict > 200)) {
					torn.Add(1)
					t.Errorf("node %s: verdict %d err %v", nd.ID, res.Verdict, err)
					return
				}
			}
		}(nd)
	}

	// The doomed leader: broadcast generations until fenced.
	okGens := make(chan int, 64)
	fenced := make(chan error, 1)
	go func() {
		for i := 1; ; i++ {
			_, err := g1.Broadcast(gen(i), core.BroadcastOptions{Hook: "ingress"})
			if err != nil {
				fenced <- err
				return
			}
			okGens <- i
		}
	}()

	// Let a couple of generations land, then the standby takes over.
	var lastOK int
	for lastOK < 2 {
		select {
		case lastOK = <-okGens:
		case err := <-fenced:
			t.Fatalf("leader fenced before takeover: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("leader made no progress")
		}
	}
	cp2, g2, flows2 := rig.controller(t)
	_, state, err := controlha.TakeOver(cp2, rig.host, rig.hostQP(t), 2, time.Minute, flows2)
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	if state.LastSeq == 0 || len(state.Versions) != len(rig.nodes) {
		t.Fatalf("replayed state: lastSeq=%d versions=%d", state.LastSeq, len(state.Versions))
	}

	// The deposed leader's broadcast loop must die on the fencing epoch.
	select {
	case err := <-fenced:
		if !errors.Is(err, core.ErrFenced) {
			t.Fatalf("deposed broadcast failed with %v, want ErrFenced", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deposed leader kept publishing after takeover")
	}
	// Regression: a straggling direct publish is rejected with the typed
	// error too — the deposed leader can never flip a pointer.
	if _, err := g1[0].InjectExtension(gen(1), "ingress"); !errors.Is(err, core.ErrFenced) {
		t.Fatalf("late publish: %v, want ErrFenced", err)
	}

	// Drain any remaining ok signals (the fenced broadcast may have been a
	// few generations past lastOK).
	for {
		select {
		case lastOK = <-okGens:
			continue
		default:
		}
		break
	}

	// The successor re-drives one generation past everything the old leader
	// managed; the whole fleet must converge on it.
	final := lastOK + 10
	if _, err := g2.Broadcast(gen(final), core.BroadcastOptions{Hook: "ingress"}); err != nil {
		t.Fatalf("re-driven broadcast: %v", err)
	}

	close(stopRead)
	readers.Wait()
	if torn.Load() != 0 {
		t.Fatalf("%d torn executions observed", torn.Load())
	}
	for _, nd := range rig.nodes {
		res, err := nd.ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(100 + final); res.Verdict != want {
			t.Errorf("node %s: verdict %d, want %d", nd.ID, res.Verdict, want)
		}
	}
	if lat := rig.reg.Histogram("controlha.takeover.latency").Median(); lat == 0 {
		t.Error("takeover latency histogram empty")
	}
}

// TestTakeOverAtPublishBarrier deposes the leader at the worst moment: the
// publish barrier of an atomic job, every blob staged and journaled, no
// pointer flipped. The BeforePublish hook is the barrier, so the case is
// deterministic: every publish the deposed leader then attempts is fenced,
// no node leaves the old generation, replay hands the successor exactly one
// open intent per node, and its re-drive converges without a recompile.
func TestTakeOverAtPublishBarrier(t *testing.T) {
	rig := newHARig(t, 3)
	cp1, g1, _ := rig.controller(t)
	if _, err := controlha.AttachLeader(cp1, rig.hostQP(t), 1, time.Minute); err != nil {
		t.Fatal(err)
	}
	gen1 := cluster.GenerationExt(ext.KindEBPF, 1, 200)
	gen2 := cluster.GenerationExt(ext.KindEBPF, 2, 200)
	if _, err := g1.Broadcast(gen1, core.BroadcastOptions{Hook: "ingress"}); err != nil {
		t.Fatal(err)
	}
	serves := func(gen uint64) {
		t.Helper()
		for _, nd := range rig.nodes {
			res, err := nd.ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
			if err != nil || res.Verdict != 100+gen {
				t.Errorf("node %s: verdict %d err %v, want generation %d", nd.ID, res.Verdict, err, gen)
			}
		}
	}

	cp2, g2, flows2 := rig.controller(t)
	targets := make([]pipeline.Target, len(g1))
	for i, cf := range g1 {
		targets[i] = cf
	}
	hqp := rig.hostQP(t)
	var state *controlha.State
	var takeoverErr error
	res, err := cp1.Scheduler().Inject(pipeline.Request{
		Ext: gen2, Hook: "ingress", Targets: targets, Atomic: true,
		BeforePublish: func() error {
			_, state, takeoverErr = controlha.TakeOver(cp2, rig.host, hqp, 2, time.Minute, flows2)
			return nil // the deposed leader carries on into the publish fan-out
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if takeoverErr != nil {
		t.Fatalf("takeover: %v", takeoverErr)
	}
	if len(res.Outcomes) != len(rig.nodes) {
		t.Fatalf("%d outcomes, want %d", len(res.Outcomes), len(rig.nodes))
	}
	for _, o := range res.Outcomes {
		if !errors.Is(o.Err, core.ErrFenced) {
			t.Errorf("node %s: deposed publish returned %v, want ErrFenced", o.Node, o.Err)
		}
	}
	serves(1)
	if len(state.Open) != len(rig.nodes) {
		t.Fatalf("replay found %d open intents, want one per node: %+v", len(state.Open), state.Open)
	}
	for _, cf := range g2 {
		if open := state.OpenFor(cf.NodeKey()); len(open) != 1 || open[0].Hook != "ingress" {
			t.Errorf("node %s: open intents %+v, want one on ingress", cf.NodeKey(), open)
		}
	}

	compiles := rig.reg.Counter("artifact.compile.invocations").Value()
	if _, err := g2.Broadcast(gen2, core.BroadcastOptions{Hook: "ingress"}); err != nil {
		t.Fatalf("re-driven broadcast: %v", err)
	}
	if got := rig.reg.Counter("artifact.compile.invocations").Value(); got != compiles {
		t.Errorf("re-drive recompiled: %d -> %d", compiles, got)
	}
	serves(2)
}

// TestJournalLagAcrossTakeover is the regression for the lag gauge going
// negative on a successor's term: the new term's journal buffer starts empty
// while the ring's offsets carry the predecessor's bytes, so the two must be
// compared from the term's own start. The gauge reads 0 after every
// replicated append, on either side of a takeover.
func TestJournalLagAcrossTakeover(t *testing.T) {
	rig := newHARig(t, 0)
	lag := rig.reg.Gauge("controlha.journal.lag")
	appendAll := func(l *controlha.Leader, term string) {
		t.Helper()
		for i := 0; i < 3; i++ {
			e := controlha.Entry{Type: controlha.EntryValidate, Digest: fmt.Sprintf("%s-%d", term, i)}
			if err := l.Journal.Append(e); err != nil {
				t.Fatal(err)
			}
			if got := lag.Value(); got != 0 {
				t.Fatalf("%s term: lag gauge %d after replicated append %d, want 0", term, got, i)
			}
		}
	}

	cp1, _, _ := rig.controller(t)
	first, err := controlha.AttachLeader(cp1, rig.hostQP(t), 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(first, "first")

	cp2, _, flows := rig.controller(t)
	second, state, err := controlha.TakeOver(cp2, rig.host, rig.hostQP(t), 2, time.Minute, flows)
	if err != nil {
		t.Fatal(err)
	}
	if state.LastSeq != 3 {
		t.Fatalf("successor replayed %d entries, want 3", state.LastSeq)
	}
	appendAll(second, "second")
}
