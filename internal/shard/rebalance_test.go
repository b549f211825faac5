package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rdx/internal/artifact"
	"rdx/internal/cluster"
	"rdx/internal/controlha"
	"rdx/internal/core"
	"rdx/internal/ext"
	"rdx/internal/node"
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
	"rdx/internal/xabi"
)

// fakeMig is a Migrator-capable executor that records the protocol's
// calls instead of touching a control plane.
type fakeMig struct {
	mu        sync.Mutex
	executed  int
	snapshots []uint64 // ring epochs HandoffSnapshot saw
	absorbed  [][]MigratedKey
	snapErr   error
}

func (f *fakeMig) Execute(ctx context.Context, j *Job) error {
	f.mu.Lock()
	f.executed++
	f.mu.Unlock()
	return nil
}

func (f *fakeMig) HandoffSnapshot(ringEpoch uint64) (*RebalanceState, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.snapErr != nil {
		return nil, f.snapErr
	}
	f.snapshots = append(f.snapshots, ringEpoch)
	return &RebalanceState{LastHandoffEpoch: ringEpoch}, nil
}

func (f *fakeMig) AbsorbKeys(st *RebalanceState, keys []MigratedKey) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.absorbed = append(f.absorbed, keys)
	return nil
}

func (f *fakeMig) absorbedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, ks := range f.absorbed {
		n += len(ks)
	}
	return n
}

// TestRebalanceScaleIn: removing a shard drains it, snapshots exactly
// once at the pre-flip ring epoch, hands every owned key to the planned
// receivers, and flips the ring in one epoch bump.
func TestRebalanceScaleIn(t *testing.T) {
	r := NewRouter(Config{Workers: 2})
	defer r.Close()
	migs := map[int]*fakeMig{}
	for id := 0; id < 3; id++ {
		migs[id] = &fakeMig{}
		if err := r.AddShard(id, migs[id]); err != nil {
			t.Fatal(err)
		}
	}
	const tenantsN = 24
	owners := map[string]int{}
	for i := 0; i < tenantsN; i++ {
		tn := fmt.Sprintf("t%02d", i)
		if err := r.Publish(context.Background(), testJob(tn, "h")); err != nil {
			t.Fatalf("publish %s: %v", tn, err)
		}
		owners[tn], _ = r.ShardFor(tn, "h")
	}
	victim := owners["t00"]
	victimKeys := 0
	for _, id := range owners {
		if id == victim {
			victimKeys++
		}
	}
	epochBefore := r.RingEpoch()

	rep, err := r.Rebalance(context.Background(), victim)
	if err != nil {
		t.Fatalf("Rebalance(%d): %v", victim, err)
	}
	if rep.Removed != victim || rep.Added != -1 {
		t.Errorf("report removed/added = %d/%d, want %d/-1", rep.Removed, rep.Added, victim)
	}
	if rep.MovedKeys != victimKeys {
		t.Errorf("report moved %d keys, victim owned %d", rep.MovedKeys, victimKeys)
	}
	if !rep.Migrated {
		t.Error("report says state did not migrate despite Migrator executors")
	}
	if rep.RingEpoch != epochBefore+1 {
		t.Errorf("ring epoch %d -> %d, want exactly one bump", epochBefore, rep.RingEpoch)
	}
	if got := migs[victim].snapshots; len(got) != 1 || got[0] != epochBefore {
		t.Errorf("victim snapshots = %v, want exactly [%d]", got, epochBefore)
	}
	gotAbsorbed := 0
	for id, m := range migs {
		if id == victim {
			if m.absorbedCount() != 0 {
				t.Errorf("departing shard absorbed %d keys", m.absorbedCount())
			}
			continue
		}
		if m.absorbedCount() != rep.Receivers[id] {
			t.Errorf("shard %d absorbed %d keys, report says %d", id, m.absorbedCount(), rep.Receivers[id])
		}
		gotAbsorbed += m.absorbedCount()
	}
	if gotAbsorbed != victimKeys {
		t.Errorf("receivers absorbed %d keys total, want %d", gotAbsorbed, victimKeys)
	}
	if _, ok := statusByID(r)[victim]; ok {
		t.Error("victim still in Status after rebalance")
	}
	// Every key still publishes, and none resolves to the removed shard.
	for tn := range owners {
		if id, _ := r.ShardFor(tn, "h"); id == victim {
			t.Fatalf("key %s still resolves to removed shard %d", tn, victim)
		}
		if err := r.Publish(context.Background(), testJob(tn, "h")); err != nil {
			t.Fatalf("post-rebalance publish %s: %v", tn, err)
		}
	}

	// Guard rails: unknown shard and last-shard removals refuse.
	if _, err := r.Rebalance(context.Background(), victim); err == nil {
		t.Error("rebalance of already-removed shard succeeded")
	}
}

// TestRebalanceLastShardRefused: the ring must never be drained empty.
func TestRebalanceLastShardRefused(t *testing.T) {
	r := NewRouter(Config{})
	defer r.Close()
	if err := r.AddShard(0, &fakeMig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Rebalance(context.Background(), 0); err == nil {
		t.Error("rebalance of the last shard succeeded")
	}
}

// TestRebalanceAddScaleOut: joining a shard migrates exactly the keys the
// enlarged ring assigns it, sources reopen, and the newcomer serves its
// range.
func TestRebalanceAddScaleOut(t *testing.T) {
	r := NewRouter(Config{Workers: 2})
	defer r.Close()
	migs := map[int]*fakeMig{}
	for id := 0; id < 2; id++ {
		migs[id] = &fakeMig{}
		if err := r.AddShard(id, migs[id]); err != nil {
			t.Fatal(err)
		}
	}
	const tenantsN = 32
	for i := 0; i < tenantsN; i++ {
		if err := r.Publish(context.Background(), testJob(fmt.Sprintf("t%02d", i), "h")); err != nil {
			t.Fatal(err)
		}
	}
	epochBefore := r.RingEpoch()
	newMig := &fakeMig{}
	rep, err := r.RebalanceAdd(context.Background(), 2, newMig)
	if err != nil {
		t.Fatalf("RebalanceAdd: %v", err)
	}
	if rep.Added != 2 || rep.Removed != -1 {
		t.Errorf("report added/removed = %d/%d, want 2/-1", rep.Added, rep.Removed)
	}
	if rep.RingEpoch != epochBefore+1 {
		t.Errorf("ring epoch %d -> %d, want exactly one bump", epochBefore, rep.RingEpoch)
	}
	// With 32 keys over 2->3 shards the newcomer should own some of them.
	if rep.MovedKeys == 0 {
		t.Error("no keys moved to the joining shard (suspicious ring)")
	}
	if newMig.absorbedCount() != rep.MovedKeys {
		t.Errorf("newcomer absorbed %d keys, report moved %d", newMig.absorbedCount(), rep.MovedKeys)
	}
	// Sources reopened and the whole key space publishes; keys owned by
	// the newcomer execute there.
	newExecBefore := newMig.executed
	servedNew := false
	for i := 0; i < tenantsN; i++ {
		tn := fmt.Sprintf("t%02d", i)
		if err := r.Publish(context.Background(), testJob(tn, "h")); err != nil {
			t.Fatalf("post-join publish %s: %v", tn, err)
		}
		if id, _ := r.ShardFor(tn, "h"); id == 2 {
			servedNew = true
		}
	}
	if !servedNew {
		t.Error("no key routed to the joined shard")
	}
	newMig.mu.Lock()
	newExecuted := newMig.executed
	newMig.mu.Unlock()
	if newExecuted <= newExecBefore {
		t.Error("joined shard executed nothing after the flip")
	}
	if _, err := r.RebalanceAdd(context.Background(), 2, &fakeMig{}); err == nil {
		t.Error("rebalance-add of existing shard succeeded")
	}
}

// TestRebalanceDrainWindow: while the departing shard drains, new submits
// to its key range fail typed ErrRebalancing (with admission refunded)
// and in-flight jobs complete — the barrier is typed, not a drop.
func TestRebalanceDrainWindow(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRouter(Config{Registry: reg, Workers: 1})
	defer r.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	blocking := &blockingMig{release: release, started: started}
	if err := r.AddShard(0, blocking); err != nil {
		t.Fatal(err)
	}
	if err := r.AddShard(1, &fakeMig{}); err != nil {
		t.Fatal(err)
	}
	// A tenant owned by shard 0.
	tn := ""
	for i := 0; ; i++ {
		cand := fmt.Sprintf("drain-t%d", i)
		if id, _ := r.ShardFor(cand, "h"); id == 0 {
			tn = cand
			break
		}
	}
	inflight := make(chan error, 1)
	go func() { inflight <- r.Publish(context.Background(), testJob(tn, "h")) }()
	<-started

	rebErr := make(chan error, 1)
	go func() {
		_, err := r.Rebalance(context.Background(), 0)
		rebErr <- err
	}()
	// Wait for the drain window to open (a pre-drain probe would enqueue
	// behind the blocked worker and wait forever), then probe: a submit
	// during the window is refused typed and refunded.
	r.mu.RLock()
	victim := r.shards[0]
	r.mu.RUnlock()
	deadline := time.After(5 * time.Second)
	for !victim.draining.Load() {
		select {
		case <-deadline:
			t.Fatal("rebalance never began draining")
		case <-time.After(time.Millisecond):
		}
	}
	if err := r.Publish(context.Background(), testJob(tn, "h")); !errors.Is(err, ErrRebalancing) {
		t.Fatalf("drain-window publish: %v, want ErrRebalancing", err)
	}
	if reg.Counter("shard.admission.refunded").Value() == 0 {
		t.Error("drain-window refusal did not refund admission")
	}
	close(release) // let the in-flight job finish; the barrier lifts
	if err := <-inflight; err != nil {
		t.Errorf("in-flight job failed across the drain barrier: %v", err)
	}
	if err := <-rebErr; err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	// The window is over: the key now publishes on its new owner.
	if err := r.Publish(context.Background(), testJob(tn, "h")); err != nil {
		t.Fatalf("post-flip publish: %v", err)
	}
}

// blockingMig executes its first job only after release closes.
type blockingMig struct {
	fakeMig
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func (b *blockingMig) Execute(ctx context.Context, j *Job) error {
	b.once.Do(func() {
		close(b.started)
		<-b.release
	})
	return b.fakeMig.Execute(ctx, j)
}

// sabotagedMig deposes its own shard's leader at the top of the handoff —
// the tightest possible "leader dies mid-handoff" interleaving: the drain
// barrier has passed, the marker append is next, and the steal lands
// between them.
type sabotagedMig struct {
	*CPExecutor
	once  sync.Once
	steal func()
}

func (m *sabotagedMig) HandoffSnapshot(ringEpoch uint64) (*RebalanceState, error) {
	m.once.Do(m.steal)
	return m.CPExecutor.HandoffSnapshot(ringEpoch)
}

// ownerProbe records which shard executed each (key, routedEpoch) — the
// double-ownership detector. For any key, all jobs stamped with the same
// ring epoch must have executed on one shard.
type ownerProbe struct {
	mu   sync.Mutex
	seen map[string]map[uint64]map[int]bool
}

func newOwnerProbe() *ownerProbe {
	return &ownerProbe{seen: map[string]map[uint64]map[int]bool{}}
}

func (p *ownerProbe) note(key string, epoch uint64, shard int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	byEpoch := p.seen[key]
	if byEpoch == nil {
		byEpoch = map[uint64]map[int]bool{}
		p.seen[key] = byEpoch
	}
	owners := byEpoch[epoch]
	if owners == nil {
		owners = map[int]bool{}
		byEpoch[epoch] = owners
	}
	owners[shard] = true
}

func (p *ownerProbe) check(t *testing.T) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, byEpoch := range p.seen {
		for epoch, owners := range byEpoch {
			if len(owners) > 1 {
				t.Errorf("key %q double-owned at ring epoch %d: shards %v", key, epoch, owners)
			}
		}
	}
}

// probedExec wraps an executor to feed the owner probe.
type probedExec struct {
	*CPExecutor
	id    int
	probe *ownerProbe
}

func (p *probedExec) Execute(ctx context.Context, j *Job) error {
	p.probe.note(Key(j.Tenant, j.Hook), j.RoutedEpoch(), p.id)
	return p.CPExecutor.Execute(ctx, j)
}

// TestRebalanceChaos is the race-detector rebalance drill: real controlha
// leaders per shard, sustained multi-tenant load, and the departing
// shard's leader deposed mid-handoff. The journaled marker must fence the
// stale leader (typed abort, ring untouched), the usual TakeOver +
// Reinstate repair must make the retry succeed with the successor
// exporting the journal-replayed state, every migrated key must converge,
// and no (key, ring-epoch) pair may ever execute on two shards.
func TestRebalanceChaos(t *testing.T) {
	const (
		nodesN  = 2
		hooksN  = 3
		shardsN = 3
	)
	ttl := time.Minute

	fab := rdma.NewFabric()
	hookNames := make([]string, hooksN)
	for h := range hookNames {
		hookNames[h] = fmt.Sprintf("h%02d", h)
	}
	fleet := make([]*node.Node, nodesN)
	nodeNames := make([]string, nodesN)
	for i := range fleet {
		nodeNames[i] = fmt.Sprintf("reb-node-%d", i)
		n, err := node.New(node.Config{
			ID: nodeNames[i], Hooks: hookNames, Cores: 2,
			Latency: rdma.NoLatency(), Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		l, err := fab.Listen(nodeNames[i])
		if err != nil {
			t.Fatal(err)
		}
		go n.Serve(l)
		fleet[i] = n
	}

	type tenantRef struct{ name, hook, nodeName string }
	var tenants []tenantRef
	for i := 0; i < nodesN; i++ {
		for h := 0; h < hooksN; h++ {
			tenants = append(tenants, tenantRef{
				name:     fmt.Sprintf("reb-tenant-%02d", i*hooksN+h),
				hook:     hookNames[h],
				nodeName: nodeNames[i],
			})
		}
	}

	reg := telemetry.NewRegistry()
	arts := artifact.NewCache(artifact.Config{Registry: reg})
	gen1 := cluster.GenerationExt(ext.KindEBPF, 1, 500)
	gen2 := cluster.GenerationExt(ext.KindEBPF, 2, 500)

	type rig struct {
		host      *controlha.Host
		cp        *core.ControlPlane
		flowsName map[string]*core.CodeFlow
		flowsKey  map[string]*core.CodeFlow
	}
	buildCP := func(label string) (*core.ControlPlane, map[string]*core.CodeFlow, map[string]*core.CodeFlow) {
		cp := core.NewControlPlaneLabeled(arts, reg, label)
		byName := map[string]*core.CodeFlow{}
		byKey := map[string]*core.CodeFlow{}
		for _, nn := range nodeNames {
			conn, err := fab.Dial(nn)
			if err != nil {
				t.Fatal(err)
			}
			cf, err := cp.CreateCodeFlow(conn)
			if err != nil {
				t.Fatal(err)
			}
			byName[nn] = cf
			byKey[cf.NodeKey()] = cf
		}
		return cp, byName, byKey
	}
	// newRig gives shard s its own standby host, control plane and leader.
	newRig := func(s int) *rig {
		host, err := controlha.NewHostWith(1<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		hostName := fmt.Sprintf("reb-stby-%d", s)
		hl, err := fab.Listen(hostName)
		if err != nil {
			t.Fatal(err)
		}
		go host.Serve(hl)
		cp, byName, byKey := buildCP(fmt.Sprintf("rdma.qp.reb%d", s))
		conn, err := fab.Dial(hostName)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := controlha.AttachLeader(cp, rdma.NewQP(conn), uint64(1+s), ttl); err != nil {
			t.Fatalf("shard %d: attach leader: %v", s, err)
		}
		return &rig{host: host, cp: cp, flowsName: byName, flowsKey: byKey}
	}
	rigs := make([]*rig, shardsN)
	for s := range rigs {
		rigs[s] = newRig(s)
	}

	probe := newOwnerProbe()
	r := NewRouter(Config{Registry: reg})
	hostSrc := func(s int) func() (*controlha.State, error) { return rigs[s].host.StateSource() }
	probed := func(s int) *probedExec {
		ex := &CPExecutor{CP: rigs[s].cp, Flows: rigs[s].flowsName, StateSource: hostSrc(s)}
		return &probedExec{CPExecutor: ex, id: s, probe: probe}
	}
	for s := 0; s < shardsN; s++ {
		if err := r.AddShard(s, probed(s)); err != nil {
			t.Fatal(err)
		}
	}
	defer r.Close()

	for _, g := range []*ext.Extension{gen1, gen2} {
		for _, tn := range tenants {
			if err := r.Publish(context.Background(), &Job{
				Tenant: tn.name, Hook: tn.hook, Ext: g,
				Nodes: []string{tn.nodeName}, Bytes: 128,
			}); err != nil {
				t.Fatalf("warmup %s: %v", tn.name, err)
			}
		}
	}

	// Cold keys (the last hook's tenants) are never republished by the
	// chaos load, so what their current owner's control plane records must
	// survive every hop verbatim — digest, version, blob — and, the cache
	// being shared, no hop may compile.
	var hot, cold []tenantRef
	for _, tn := range tenants {
		if tn.hook == hookNames[hooksN-1] {
			cold = append(cold, tn)
		} else {
			hot = append(hot, tn)
		}
	}
	coldVersion := func(tn tenantRef) core.DeployedVersion {
		t.Helper()
		id, _ := r.ShardFor(tn.name, tn.hook)
		dv, ok := rigs[id].cp.DeployedVersion(rigs[id].flowsName[tn.nodeName].NodeKey(), tn.hook)
		if !ok {
			t.Fatalf("cold key %s has no deployed version on its owner, shard %d", tn.name, id)
		}
		return dv
	}
	pinned := map[string]core.DeployedVersion{}
	for _, tn := range cold {
		pinned[tn.name] = coldVersion(tn)
	}
	compiles := reg.Counter("artifact.compile.invocations").Value()
	checkCold := func(when string) {
		t.Helper()
		for _, tn := range cold {
			if got := coldVersion(tn); got != pinned[tn.name] {
				t.Errorf("%s: cold key %s migrated as %+v, want %+v", when, tn.name, got, pinned[tn.name])
			}
		}
		if got := reg.Counter("artifact.compile.invocations").Value(); got != compiles {
			t.Errorf("%s: artifact.compile.invocations %d -> %d, want flat", when, compiles, got)
		}
	}
	victim, _ := r.ShardFor(cold[0].name, cold[0].hook)

	// Chaos load: every failure must be typed — ErrRebalancing during a
	// drain window, ErrShardUnavailable while the victim's leader is dead.
	var (
		stop = make(chan struct{})
		wg   sync.WaitGroup
	)
	gens := []*ext.Extension{gen1, gen2}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				tn := hot[(iter*4+w)%len(hot)]
				err := r.Publish(context.Background(), &Job{
					Tenant: tn.name, Hook: tn.hook, Ext: gens[iter%2],
					Nodes: []string{tn.nodeName}, Bytes: 128,
				})
				if err != nil && !errors.Is(err, ErrRebalancing) && !errors.Is(err, ErrShardUnavailable) {
					t.Errorf("untyped chaos failure on %s: %v", tn.name, err)
					return
				}
			}
		}(w)
	}

	// First rebalance attempt: the departing leader is deposed at the top
	// of the handoff (drain passed, marker append next). The marker must
	// fence — typed abort, no state exported, ring untouched.
	waitUntil(t, "chaos traffic flowing before the sabotaged handoff", func() bool {
		var total uint64
		for _, st := range r.Status() {
			total += st.Published
		}
		return total > 0
	})
	var succCP *core.ControlPlane
	var succName map[string]*core.CodeFlow
	epochBefore := r.RingEpoch()
	sab := &sabotagedMig{
		CPExecutor: &CPExecutor{CP: rigs[victim].cp, Flows: rigs[victim].flowsName, StateSource: hostSrc(victim)},
		steal: func() {
			cp, byName, byKey := buildCP(fmt.Sprintf("rdma.qp.reb%d succ", victim))
			sconn, err := fab.Dial(fmt.Sprintf("reb-stby-%d", victim))
			if err != nil {
				t.Error(err)
				return
			}
			if _, _, err := controlha.TakeOver(cp, rigs[victim].host, rdma.NewQP(sconn), 42, ttl, byKey); err != nil {
				t.Errorf("takeover of shard %d: %v", victim, err)
				return
			}
			succCP, succName = cp, byName
		},
	}
	if err := r.Reinstate(victim, sab); err != nil {
		t.Fatal(err)
	}
	_, err := r.Rebalance(context.Background(), victim)
	if !errors.Is(err, ErrRebalancing) {
		t.Fatalf("sabotaged rebalance: got %v, want ErrRebalancing", err)
	}
	if !errors.Is(err, controlha.ErrFencedAppend) {
		t.Fatalf("sabotaged rebalance: %v should wrap ErrFencedAppend (the marker fences the stale leader)", err)
	}
	if r.RingEpoch() != epochBefore {
		t.Fatalf("aborted rebalance moved the ring: epoch %d -> %d", epochBefore, r.RingEpoch())
	}
	if _, ok := statusByID(r)[victim]; !ok {
		t.Fatal("aborted rebalance removed the victim shard")
	}
	if succCP == nil {
		t.Fatal("sabotage takeover never ran")
	}

	// Repair: reinstate the successor (its control plane already replayed
	// the shard's journal), then retry. This time the handoff succeeds:
	// the successor's journal marker replicates under its own epoch.
	if err := r.Reinstate(victim, &probedExec{
		CPExecutor: &CPExecutor{CP: succCP, Flows: succName, StateSource: hostSrc(victim)},
		id:         victim, probe: probe,
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Rebalance(context.Background(), victim)
	if err != nil {
		t.Fatalf("retry rebalance: %v", err)
	}
	if !rep.Migrated {
		t.Error("retry rebalance moved keys without state")
	}
	if rep.RingEpoch != epochBefore+1 {
		t.Errorf("ring epoch %d -> %d across rebalance, want one bump", epochBefore, rep.RingEpoch)
	}
	checkCold("after scale-in")

	// Second hop, still under load: a fresh shard joins. Keys it takes from
	// a receiver of the first hop migrate out of that receiver's
	// re-journaled absorb records.
	rigs = append(rigs, newRig(shardsN))
	rep, err = r.RebalanceAdd(context.Background(), shardsN, probed(shardsN))
	if err != nil {
		t.Fatalf("scale-out: %v", err)
	}
	if rep.RingEpoch != epochBefore+2 {
		t.Errorf("ring epoch %d -> %d across scale-in + scale-out, want two bumps", epochBefore, rep.RingEpoch)
	}
	checkCold("after scale-out")
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Convergence: every tenant (migrated range included) publishes gen2
	// and its hook executes the new generation; nothing routes to the
	// removed shard; no (key, epoch) ever ran on two shards.
	for i, tn := range tenants {
		if id, _ := r.ShardFor(tn.name, tn.hook); id == victim {
			t.Fatalf("key %s still resolves to removed shard %d", tn.name, victim)
		}
		if err := r.Publish(context.Background(), &Job{
			Tenant: tn.name, Hook: tn.hook, Ext: gen2,
			Nodes: []string{tn.nodeName}, Bytes: 128,
		}); err != nil {
			t.Fatalf("post-rebalance publish %s: %v", tn.name, err)
		}
		res, err := fleet[i/hooksN].ExecHook(tn.hook, make([]byte, xabi.CtxSize), nil)
		if err != nil {
			t.Fatalf("tenant %s hook exec: %v", tn.name, err)
		}
		if res.Verdict != 102 {
			t.Fatalf("tenant %s verdict %d, want 102 (did not converge)", tn.name, res.Verdict)
		}
	}
	probe.check(t)
}
