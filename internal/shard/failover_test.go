package shard

import (
	"context"
	"errors"
	"fmt"
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
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
	"rdx/internal/xabi"
)

// TestShardFailoverChaos is the race-detector failover drill: three shards
// with real controlha leaders publish for a small multi-tenant fleet under
// continuous concurrent load while one shard's lease is stolen mid-run.
// Only the victim shard's tenants may fail, every failure must be typed
// ErrShardUnavailable, and after controlha.TakeOver + Router.Reinstate the
// whole key space converges. Run it with -race: the steal lands while the
// deposed leader's workers are mid-dispatch.
func TestShardFailoverChaos(t *testing.T) {
	const (
		nodesN  = 2
		hooksN  = 4
		shardsN = 3
	)
	ttl := time.Minute // deposal below is by Steal, never by expiry

	fab := rdma.NewFabric()
	hookNames := make([]string, hooksN)
	for h := range hookNames {
		hookNames[h] = fmt.Sprintf("h%02d", h)
	}
	fleet := make([]*node.Node, nodesN)
	nodeNames := make([]string, nodesN)
	for i := range fleet {
		nodeNames[i] = fmt.Sprintf("chaos-node-%d", i)
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
				name:     fmt.Sprintf("chaos-tenant-%02d", i*hooksN+h),
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
	rigs := make([]*rig, shardsN)
	for s := 0; s < shardsN; s++ {
		host, err := controlha.NewHostWith(1<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		hostName := fmt.Sprintf("chaos-stby-%d", s)
		hl, err := fab.Listen(hostName)
		if err != nil {
			t.Fatal(err)
		}
		go host.Serve(hl)
		cp, byName, byKey := buildCP(fmt.Sprintf("rdma.qp.chaos%d", s))
		conn, err := fab.Dial(hostName)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := controlha.AttachLeader(cp, rdma.NewQP(conn), uint64(1+s), ttl); err != nil {
			t.Fatalf("shard %d: attach leader: %v", s, err)
		}
		rigs[s] = &rig{host: host, cp: cp, flowsName: byName, flowsKey: byKey}
	}

	r := NewRouter(Config{Registry: reg})
	for s := 0; s < shardsN; s++ {
		r.AddShard(s, NewCPExecutor(rigs[s].cp, rigs[s].flowsName))
	}
	defer r.Close()

	// Stage both generations everywhere so the chaos load runs the
	// resident fast path and a replayed journal re-publishes known digests.
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

	// The artifact cache is process-wide: warm-up compiled each digest
	// once, and nothing from here on — chaos load, steal, takeover,
	// reinstate, re-drive, on any shard — may compile again.
	compiles := reg.Counter("artifact.compile.invocations").Value()
	if compiles != 2 {
		t.Errorf("warm-up compiled %d times across %d shards, want once per digest (2)", compiles, shardsN)
	}

	victim, _ := r.ShardFor(tenants[0].name, tenants[0].hook)
	owner := make([]int, len(tenants))
	for i, tn := range tenants {
		owner[i], _ = r.ShardFor(tn.name, tn.hook)
	}

	// Chaos load: concurrent publishers hammer every tenant with
	// alternating generations until told to stop. The only acceptable
	// failure is a typed ErrShardUnavailable on a victim-owned tenant.
	var (
		stop        = make(chan struct{})
		wg          sync.WaitGroup
		victimFails atomic.Uint64
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
				i := (iter*4 + w) % len(tenants)
				tn := tenants[i]
				err := r.Publish(context.Background(), &Job{
					Tenant: tn.name, Hook: tn.hook, Ext: gens[iter%2],
					Nodes: []string{tn.nodeName}, Bytes: 128,
				})
				if err == nil {
					continue
				}
				if owner[i] != victim {
					t.Errorf("fence leaked: tenant %s on shard %d failed: %v", tn.name, owner[i], err)
					return
				}
				if !errors.Is(err, ErrShardUnavailable) {
					t.Errorf("victim tenant %s failed untyped: %v", tn.name, err)
					return
				}
				victimFails.Add(1)
			}
		}(w)
	}

	// Mid-run: steal the victim's lease. The deposed leader's next lease
	// check fails closed; its shard front fences; the successor replays the
	// shard's journal against its own flows.
	waitUntil(t, "every shard publishing under chaos load", func() bool {
		for _, st := range r.Status() {
			if st.Published == 0 {
				return false
			}
		}
		return true
	})
	before := statusByID(r)
	succCP, succName, succKey := buildCP(fmt.Sprintf("rdma.qp.chaos%d succ", victim))
	sconn, err := fab.Dial(fmt.Sprintf("chaos-stby-%d", victim))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := controlha.TakeOver(succCP, rigs[victim].host, rdma.NewQP(sconn), 42, ttl, succKey); err != nil {
		t.Fatalf("takeover of shard %d: %v", victim, err)
	}

	// Deterministic fence probe: with the old leader deposed and the
	// successor not yet installed, a victim-owned publish must fail typed.
	if err := r.Publish(context.Background(), &Job{
		Tenant: tenants[0].name, Hook: tenants[0].hook, Ext: gen1,
		Nodes: []string{tenants[0].nodeName}, Bytes: 128,
	}); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("fenced-shard publish got %v, want ErrShardUnavailable", err)
	}
	// Hold the fence window open until the end-of-test assertions are
	// guaranteed: a worker (not just the probe) hit the fenced victim, and
	// every healthy shard made progress past the pre-takeover snapshot.
	waitUntil(t, "fence window effects (victim failure + sibling progress)", func() bool {
		if victimFails.Load() == 0 {
			return false
		}
		for id, st := range statusByID(r) {
			if id != victim && st.Published <= before[id].Published {
				return false
			}
		}
		return true
	})
	if err := r.Reinstate(victim, NewCPExecutor(succCP, succName)); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if victimFails.Load() == 0 {
		t.Error("no victim-tenant failure observed during the fence window (probe aside)")
	}
	after := statusByID(r)
	for id, st := range after {
		if id != victim && st.Published <= before[id].Published {
			t.Errorf("healthy shard %d stalled during sibling fence (%d -> %d)",
				id, before[id].Published, st.Published)
		}
	}
	if reg.Counter(fmt.Sprintf("shard.%d.fenced", victim)).Value() == 0 {
		t.Errorf("shard.%d.fenced did not advance", victim)
	}

	// Post-failover: the whole key space, victim range included, converges
	// on gen2 through the reinstated successor.
	for i, tn := range tenants {
		if err := r.Publish(context.Background(), &Job{
			Tenant: tn.name, Hook: tn.hook, Ext: gen2,
			Nodes: []string{tn.nodeName}, Bytes: 128,
		}); err != nil {
			t.Fatalf("post-reinstate publish %s: %v", tn.name, err)
		}
		res, err := fleet[i/hooksN].ExecHook(tn.hook, make([]byte, xabi.CtxSize), nil)
		if err != nil {
			t.Fatalf("tenant %s hook exec: %v", tn.name, err)
		}
		if res.Verdict != 102 {
			t.Fatalf("tenant %s verdict %d, want 102 (did not converge)", tn.name, res.Verdict)
		}
	}
	if got := reg.Counter("artifact.compile.invocations").Value(); got != compiles {
		t.Errorf("artifact.compile.invocations %d -> %d across shard failover, want flat (one compile per digest fleet-wide)", compiles, got)
	}
}

// statusByID indexes the router's per-shard snapshot by ID.
func statusByID(r *Router) map[int]ShardStatus {
	out := map[int]ShardStatus{}
	for _, st := range r.Status() {
		out[st.ID] = st
	}
	return out
}
