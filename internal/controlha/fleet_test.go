package controlha_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdx/internal/cluster"
	"rdx/internal/controlha"
	"rdx/internal/core"
	"rdx/internal/ext"
	"rdx/internal/mem"
	"rdx/internal/native"
	"rdx/internal/node"
	"rdx/internal/pipeline"
	"rdx/internal/xabi"
)

// forwardingSink is an eight-method JournalSink that forwards every call,
// shaped like the benchmark's tracing decorator: it is no core.Journaler,
// so the control plane drives it call by call.
type forwardingSink struct{ inner core.JournalSink }

func (s forwardingSink) JournalValidate(d string)               { s.inner.JournalValidate(d) }
func (s forwardingSink) JournalCompile(d string, a native.Arch) { s.inner.JournalCompile(d, a) }
func (s forwardingSink) JournalStage(n, h, name, d string, v, b uint64) {
	s.inner.JournalStage(n, h, name, d, v, b)
}
func (s forwardingSink) JournalPublish(n, h string, d core.Deployed) {
	s.inner.JournalPublish(n, h, d)
}
func (s forwardingSink) JournalRollback(n, h string, d core.Deployed) {
	s.inner.JournalRollback(n, h, d)
}
func (s forwardingSink) JournalClaim(n string, b uint64)   { s.inner.JournalClaim(n, b) }
func (s forwardingSink) JournalReclaim(n string, e uint64) { s.inner.JournalReclaim(n, e) }
func (s forwardingSink) JournalHandoff(e uint64) error     { return s.inner.JournalHandoff(e) }

// servesGen fails the test unless every node's ingress runs generation gen.
func servesGen(t *testing.T, rig *haRig, gen int) {
	t.Helper()
	for _, nd := range rig.nodes {
		res, err := nd.ExecHook("ingress", make([]byte, xabi.CtxSize), nil)
		if err != nil || res.Verdict != uint64(100+gen) {
			t.Errorf("node %s: verdict %d err %v, want generation %d", nd.ID, res.Verdict, err, gen)
		}
	}
}

// broadcastGens publishes generations from..to, in order, to every node.
func broadcastGens(t *testing.T, g core.Group, from, to int) {
	t.Helper()
	for gen := from; gen <= to; gen++ {
		if _, err := g.Broadcast(cluster.GenerationExt(ext.KindEBPF, gen, 200), core.BroadcastOptions{Hook: "ingress"}); err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
	}
}

// entryTypes lists the types of entries, in journal order.
func entryTypes(entries []controlha.Entry) []controlha.EntryType {
	out := make([]controlha.EntryType, len(entries))
	for i, e := range entries {
		out[i] = e.Type
	}
	return out
}

// TestFleetJobJournalsInThreeFlights pins a fleet job's journal cost: once
// every node has a standby to claim, a 32-node broadcast journals a claim,
// a stage and a publish per node — 96 entries — in exactly three flights,
// one per phase barrier, job after job, and the standby's copy replays to
// the leader's state. Through an eight-method sink, like the benchmark's
// tracing decorator, the same jobs journal the same entry types in the
// same order.
func TestFleetJobJournalsInThreeFlights(t *testing.T) {
	const nodes, jobs = 32, 4
	rig := newHARig(t, nodes)
	cp, g, _ := rig.controller(t)
	ldr, err := controlha.AttachLeader(cp, rig.hostQP(t), 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Two generations leave every hook a standby, so each later job claims.
	broadcastGens(t, g, 1, 2)
	flights := rig.reg.Counter("controlha.journal.flights")
	var raw []controlha.EntryType
	for gen := 3; gen < 3+jobs; gen++ {
		// Precompiled, as the benchmark's rollout is: the job itself
		// journals no validate or compile entry.
		if _, err := cp.JITCompileCode(cluster.GenerationExt(ext.KindEBPF, gen, 200), g[0].Arch); err != nil {
			t.Fatal(err)
		}
		entries, flown := ldr.Journal.Len(), flights.Value()
		broadcastGens(t, g, gen, gen)
		if n := ldr.Journal.Len() - entries; n != 3*nodes {
			t.Errorf("generation %d journaled %d entries, want %d", gen, n, 3*nodes)
		}
		if n := flights.Value() - flown; n != 3 {
			t.Errorf("generation %d flew %d journal flights, want 3", gen, n)
		}
		raw = entryTypes(ldr.Journal.Entries()[entries:])
	}
	servesGen(t, rig, 3+jobs-1)
	if _, err := rig.host.Pump(); err != nil {
		t.Fatal(err)
	}
	standby, err := controlha.Replay(rig.host.JournalBytes())
	if err != nil {
		t.Fatal(err)
	}
	leader, err := controlha.Replay(ldr.Journal.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(standby, leader) {
		t.Errorf("standby replays %d entries to a state other than the leader's %d", standby.Entries, leader.Entries)
	}

	cp.SetJournal(forwardingSink{ldr.Journal})
	if _, err := cp.JITCompileCode(cluster.GenerationExt(ext.KindEBPF, 3+jobs, 200), g[0].Arch); err != nil {
		t.Fatal(err)
	}
	entries := ldr.Journal.Len()
	broadcastGens(t, g, 3+jobs, 3+jobs)
	if wrapped := entryTypes(ldr.Journal.Entries()[entries:]); !reflect.DeepEqual(wrapped, raw) {
		t.Errorf("through an eight-method sink a job journals %v, through the journal %v", wrapped, raw)
	}
}

// hookedTarget runs a test's hooks around a CodeFlow's writes and publishes.
type hookedTarget struct {
	*core.CodeFlow
	write   func(inner pipeline.Staged, ctx context.Context) error
	publish func(inner pipeline.Staged, ctx context.Context) error
}

func (h hookedTarget) Stage(ctx context.Context, e *ext.Extension, hook string) (pipeline.Staged, error) {
	st, err := h.CodeFlow.Stage(ctx, e, hook)
	if err != nil {
		return nil, err
	}
	return hookedStaged{Staged: st, t: h}, nil
}

type hookedStaged struct {
	pipeline.Staged
	t hookedTarget
}

func (s hookedStaged) Write(ctx context.Context) error {
	if s.t.write != nil {
		return s.t.write(s.Staged, ctx)
	}
	return s.Staged.Write(ctx)
}

func (s hookedStaged) Publish(ctx context.Context) error {
	if s.t.publish != nil {
		return s.t.publish(s.Staged, ctx)
	}
	return s.Staged.Publish(ctx)
}

// hooked wraps every flow of g in one hookedTarget with the given hooks.
func hooked(g core.Group, write, publish func(pipeline.Staged, context.Context) error) []pipeline.Target {
	out := make([]pipeline.Target, len(g))
	for i, cf := range g {
		out[i] = hookedTarget{CodeFlow: cf, write: write, publish: publish}
	}
	return out
}

// standbyBlobs returns each flow's claimable standby: the blob of the entry
// below the top of its ingress stack.
func standbyBlobs(t *testing.T, g core.Group) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	for _, cf := range g {
		h := cf.History("ingress")
		if len(h) < 2 {
			t.Fatalf("node %s: stack of %d, want a standby below the top", cf.NodeKey(), len(h))
		}
		out[cf.NodeKey()] = h[len(h)-2].Blob
	}
	return out
}

// wantTombstoned fails the test unless every entry of stacks[node] holding
// blobs[node] is marked Reclaimed, and at least one does.
func wantTombstoned(t *testing.T, who string, stacks map[string][]core.Deployed, blobs map[string]uint64) {
	t.Helper()
	for nodeKey, blob := range blobs {
		found := false
		for _, d := range stacks[nodeKey] {
			if d.Blob == blob {
				found = true
				if !d.Reclaimed {
					t.Errorf("%s: node %s keeps claimed blob %#x live: %+v", who, nodeKey, blob, d)
				}
			}
		}
		if !found {
			t.Errorf("%s: node %s has no entry for claimed blob %#x", who, nodeKey, blob)
		}
	}
}

// stacksOf is the replayed state's ingress stacks by node.
func stacksOf(st *controlha.State) map[string][]core.Deployed {
	out := map[string][]core.Deployed{}
	for k, h := range st.History {
		if k.Hook == "ingress" {
			out[k.Node] = h
		}
	}
	return out
}

// TestTakeOverAtClaimBarrier deposes the leader at a fleet job's first
// barrier: every node's standby claimed and the claims durable, nothing
// written yet. The deposed leader's writes then overwrite the claimed
// blobs, so the successor's replayed state must hold them tombstoned, and
// a rollback onto them is refused while every node keeps serving the
// dispatched generation.
func TestTakeOverAtClaimBarrier(t *testing.T) {
	rig := newHARig(t, 3)
	cp1, g1, _ := rig.controller(t)
	if _, err := controlha.AttachLeader(cp1, rig.hostQP(t), 1, time.Minute); err != nil {
		t.Fatal(err)
	}
	broadcastGens(t, g1, 1, 2)
	claimed := standbyBlobs(t, g1)

	cp2, g2, flows2 := rig.controller(t)
	hqp := rig.hostQP(t)
	var once sync.Once
	var state *controlha.State
	var takeoverErr error
	write := func(inner pipeline.Staged, ctx context.Context) error {
		once.Do(func() {
			_, state, takeoverErr = controlha.TakeOver(cp2, rig.host, hqp, 2, time.Minute, flows2)
		})
		return inner.Write(ctx) // the deposed leader writes into the claimed blobs
	}
	res, err := pipeline.New(cp1.Registry, cp1.Tracer).Inject(pipeline.Request{
		Ext: cluster.GenerationExt(ext.KindEBPF, 3, 200), Hook: "ingress", Targets: hooked(g1, write, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if takeoverErr != nil {
		t.Fatalf("takeover: %v", takeoverErr)
	}
	for _, o := range res.Outcomes {
		if !errors.Is(o.Err, core.ErrFenced) {
			t.Errorf("node %s: deposed publish returned %v, want ErrFenced", o.Node, o.Err)
		}
	}
	servesGen(t, rig, 2)
	wantTombstoned(t, "successor's replayed state", stacksOf(state), claimed)
	for _, cf := range g2 {
		if _, err := cf.Rollback("ingress"); err == nil {
			t.Errorf("node %s: successor rolled back onto a claimed blob", cf.NodeKey())
		}
	}
	servesGen(t, rig, 2)
}

// TestTakeOverBeforePublishFlight deposes the leader after every node of a
// job has flipped and before the job's publish entries fly. The successor
// replays the job's stage intents as open, every node already serves the
// new generation, and the successor's re-drive converges without writing
// into any blob a node dispatches.
func TestTakeOverBeforePublishFlight(t *testing.T) {
	rig := newHARig(t, 3)
	cp1, g1, _ := rig.controller(t)
	if _, err := controlha.AttachLeader(cp1, rig.hostQP(t), 1, time.Minute); err != nil {
		t.Fatal(err)
	}
	broadcastGens(t, g1, 1, 2)

	cp2, g2, flows2 := rig.controller(t)
	hqp := rig.hostQP(t)
	var flipped atomic.Int32
	var state *controlha.State
	var takeoverErr error
	publish := func(inner pipeline.Staged, ctx context.Context) error {
		err := inner.Publish(ctx)
		if flipped.Add(1) == int32(len(g1)) {
			_, state, takeoverErr = controlha.TakeOver(cp2, rig.host, hqp, 2, time.Minute, flows2)
		}
		return err
	}
	gen3 := cluster.GenerationExt(ext.KindEBPF, 3, 200)
	res, err := pipeline.New(cp1.Registry, cp1.Tracer).Inject(pipeline.Request{
		Ext: gen3, Hook: "ingress", Targets: hooked(g1, nil, publish),
	})
	if err != nil {
		t.Fatal(err)
	}
	if takeoverErr != nil {
		t.Fatalf("takeover: %v", takeoverErr)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatalf("every flip landed before the takeover: %v", err)
	}
	servesGen(t, rig, 3)
	if len(state.Open) != len(g2) {
		t.Fatalf("replay found %d open intents, want one per node: %+v", len(state.Open), state.Open)
	}

	// What each node dispatches now, which no re-drive write may touch.
	type dispatch struct {
		nd    *node.Node
		blob  uint64
		bytes []byte
	}
	var live []dispatch
	targets := make([]pipeline.Target, len(g2))
	for i, cf := range g2 {
		targets[i] = cf
		hookAddr, err := cf.HookAddr("ingress")
		if err != nil {
			t.Fatal(err)
		}
		blob, err := cf.Remote.ReadMem(hookAddr+node.HookOffDispatch, 8)
		if err != nil {
			t.Fatal(err)
		}
		n, err := cf.Remote.ReadMem(blob+node.BlobOffLen, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cf.Remote.ReadBytes(blob, node.BlobHdrSize+int(n))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, dispatch{nd: rig.nodes[i], blob: blob, bytes: b})
	}
	res, err = pipeline.New(cp2.Registry, cp2.Tracer).Inject(pipeline.Request{
		Ext: gen3, Hook: "ingress", Targets: targets,
		BeforePublish: func() error {
			for _, d := range live {
				got, err := d.nd.Arena.Read(mem.Addr(d.blob), len(d.bytes))
				if err != nil {
					return err
				}
				if !bytes.Equal(got, d.bytes) {
					t.Errorf("node %s: the re-drive wrote into the dispatched blob %#x", d.nd.ID, d.blob)
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatalf("re-driven job: %v", err)
	}
	servesGen(t, rig, 3)
}

// TestAbortedJobKeepsClaimsTombstoned fails one node's write in a job
// whose every node claimed its standby: no node flips, and the claimed
// blobs stay tombstoned on the leader and in the standby's copy, so
// neither can roll back onto bytes the job's other writes overwrote.
func TestAbortedJobKeepsClaimsTombstoned(t *testing.T) {
	rig := newHARig(t, 3)
	cp, g, _ := rig.controller(t)
	ldr, err := controlha.AttachLeader(cp, rig.hostQP(t), 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	broadcastGens(t, g, 1, 2)
	claimed := standbyBlobs(t, g)
	failing := g[len(g)-1].NodeKey()
	injected := errors.New("injected write failure")
	targets := hooked(g, nil, nil)
	targets[len(g)-1] = hookedTarget{CodeFlow: g[len(g)-1],
		write: func(pipeline.Staged, context.Context) error { return injected }}
	res, err := pipeline.New(cp.Registry, cp.Tracer).Inject(pipeline.Request{
		Ext: cluster.GenerationExt(ext.KindEBPF, 3, 200), Hook: "ingress", Targets: targets,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Published {
		t.Fatal("a job with a failed write published")
	}
	for _, o := range res.Outcomes {
		if o.Node == failing && !errors.Is(o.Err, injected) {
			t.Errorf("failing node's outcome %v, want the injected failure", o.Err)
		}
	}
	servesGen(t, rig, 2)
	leader := map[string][]core.Deployed{}
	for _, cf := range g {
		leader[cf.NodeKey()] = cf.History("ingress")
	}
	wantTombstoned(t, "leader", leader, claimed)
	if _, err := rig.host.Pump(); err != nil {
		t.Fatal(err)
	}
	st, err := controlha.Replay(rig.host.JournalBytes())
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != ldr.Journal.Len() {
		t.Errorf("standby holds %d entries, leader %d: the job's claims did not all fly", st.Entries, ldr.Journal.Len())
	}
	wantTombstoned(t, "standby", stacksOf(st), claimed)
	for _, cf := range g {
		if _, err := cf.Rollback("ingress"); err == nil {
			t.Errorf("node %s: rolled back onto a claimed blob", cf.NodeKey())
		}
	}
	servesGen(t, rig, 2)
}

// TestResidentRepublishAckAllocs: a resident republish journaled through
// Journal(e).Wait() allocates no more than the same republish journaled
// through JournalPublish, the eight-method path.
func TestResidentRepublishAckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not stable under -race")
	}
	rig := newHARig(t, 1)
	cp, g, _ := rig.controller(t)
	ldr, err := controlha.AttachLeader(cp, rig.hostQP(t), 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	e := cluster.GenerationExt(ext.KindEBPF, 1, 200)
	republish := func() {
		if _, err := g[0].InjectExtension(e, "ingress"); err != nil {
			t.Fatal(err)
		}
	}
	republish()
	flights := rig.reg.Counter("controlha.journal.flights")
	before := flights.Value()
	acked := testing.AllocsPerRun(200, republish)
	if n := flights.Value() - before; n != 201 {
		t.Fatalf("%d flights for 201 republishes, want one each", n)
	}
	cp.SetJournal(forwardingSink{ldr.Journal})
	blocking := testing.AllocsPerRun(200, republish)
	if acked > blocking {
		t.Errorf("a resident republish allocates %v times through its ack, %v through JournalPublish", acked, blocking)
	}
}
