package cluster

import (
	"context"
	"testing"
	"time"

	"rdx/internal/core"
	"rdx/internal/ext"
	"rdx/internal/rdma"
)

func newApp(t *testing.T, services int) (*App, *core.ControlPlane) {
	t.Helper()
	app, err := NewApp("t", Options{
		Services:    services,
		Latency:     rdma.NoLatency(),
		ServiceCost: 5 * time.Microsecond,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	cp := core.NewControlPlane()
	if err := app.ConnectControlPlane(cp); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	return app, cp
}

func TestAppTopology(t *testing.T) {
	app, _ := newApp(t, 6)
	if len(app.Services) != 6 {
		t.Fatalf("services = %d", len(app.Services))
	}
	if len(app.Chains) == 0 {
		t.Fatal("no chains")
	}
	for _, chain := range app.Chains {
		if len(chain) < 2 {
			t.Errorf("chain too short: %v", chain)
		}
		for _, svc := range chain {
			if svc < 0 || svc >= 6 {
				t.Errorf("chain references service %d", svc)
			}
		}
	}
}

func TestAppRejectsTooSmall(t *testing.T) {
	if _, err := NewApp("x", Options{Services: 1}); err == nil {
		t.Error("single-service app accepted")
	}
}

func TestDoRequestThroughEmptyHooks(t *testing.T) {
	app, _ := newApp(t, 4)
	res := app.DoRequest(context.Background(), 1)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Mixed {
		t.Error("empty hooks produced a mixed request")
	}
	if len(res.Verdicts) < 2 {
		t.Errorf("verdicts = %v", res.Verdicts)
	}
}

func TestGenerationExtKinds(t *testing.T) {
	for _, kind := range []ext.Kind{ext.KindEBPF, ext.KindWasm} {
		e := GenerationExt(kind, 3, 50)
		if _, err := e.Validate(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if e.Kind != kind {
			t.Errorf("kind = %v", e.Kind)
		}
	}
}

func TestRDXRolloutStampsAllServices(t *testing.T) {
	app, _ := newApp(t, 4)
	rep, err := app.RDXRollout(GenerationExt(ext.KindEBPF, 1, 10), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 4 {
		t.Fatalf("outcomes = %+v", rep.Outcomes)
	}
	res := app.DoRequest(context.Background(), 7)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for _, v := range res.Verdicts {
		if v != 101 {
			t.Errorf("verdicts = %v, want all 101", res.Verdicts)
		}
	}
	if res.Mixed {
		t.Error("uniform generation flagged mixed")
	}
}

func TestAgentRolloutEventuallyConsistent(t *testing.T) {
	app, _ := newApp(t, 4)
	res, err := app.AgentRollout(GenerationExt(ext.KindEBPF, 1, 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Span <= 0 || len(res.PerNode) != 4 {
		t.Fatalf("rollout result: %+v", res)
	}
	// After completion every service runs gen 1.
	r := app.DoRequest(context.Background(), 9)
	for _, v := range r.Verdicts {
		if v != 101 {
			t.Errorf("verdicts = %v", r.Verdicts)
		}
	}
}

func TestMixedDetectionDuringStaggeredUpdate(t *testing.T) {
	// Manually create a mixed state: half the services on gen 1, half on
	// gen 2; requests whose chains span both must be flagged.
	app, _ := newApp(t, 4)
	g := app.Group()
	lo := core.Group{g[0], g[1]}
	hi := core.Group{g[2], g[3]}
	if _, err := lo.Broadcast(GenerationExt(ext.KindEBPF, 1, 10), core.BroadcastOptions{Hook: Hook}); err != nil {
		t.Fatal(err)
	}
	if _, err := hi.Broadcast(GenerationExt(ext.KindEBPF, 2, 10), core.BroadcastOptions{Hook: Hook}); err != nil {
		t.Fatal(err)
	}
	mixed := 0
	for flow := uint64(0); flow < 50; flow++ {
		res := app.DoRequest(context.Background(), flow)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Mixed {
			mixed++
		}
	}
	if mixed == 0 {
		t.Error("no mixed requests detected across a split-generation app")
	}
}

func TestTrafficLifecycle(t *testing.T) {
	app, _ := newApp(t, 3)
	tr := app.StartTraffic(300)
	time.Sleep(100 * time.Millisecond)
	tr.Stop()
	if tr.Completed == 0 {
		t.Error("no requests completed")
	}
	if tr.MixedCount != 0 || tr.MixedWindow() != 0 {
		t.Error("mixed requests without any update")
	}
}

func TestBBURolloutZeroInconsistency(t *testing.T) {
	// The §4 claim: with BBU, a broadcast update produces zero mixed
	// requests even under live traffic.
	app, _ := newApp(t, 5)
	if _, err := app.RDXRollout(GenerationExt(ext.KindEBPF, 1, 50), false); err != nil {
		t.Fatal(err)
	}
	tr := app.StartTraffic(400)
	time.Sleep(30 * time.Millisecond)
	for gen := 2; gen <= 4; gen++ {
		if _, err := app.RDXRollout(GenerationExt(ext.KindEBPF, gen, 50), true); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	tr.Stop()
	if tr.Completed == 0 {
		t.Fatal("no traffic completed")
	}
	if tr.MixedCount != 0 {
		t.Errorf("BBU rollout produced %d mixed requests (of %d)", tr.MixedCount, tr.Completed)
	}
}
