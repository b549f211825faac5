package experiments

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"rdx/internal/agent"
	"rdx/internal/cluster"
	"rdx/internal/core"
	"rdx/internal/ebpf/progen"
	"rdx/internal/ext"
	"rdx/internal/kvstore"
	"rdx/internal/node"
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
)

// Fig2b measures update-inconsistency windows during rollouts across
// microservice apps of growing size (paper Fig 2b: hundreds of ms under
// agent-based eventual consistency, for both eBPF and Wasm extensions),
// contrasted with RDX broadcast + BBU (zero mixed requests).
func Fig2b(opts Options) (*telemetry.Table, error) {
	appSizes := []int{4, 11, 17, 33}
	trafficRate := 250.0
	jitterEBPF := 250 * time.Millisecond
	jitterWasm := 400 * time.Millisecond // xDS-style config propagation is slower
	filler := 40000
	if opts.Quick {
		appSizes = []int{4, 8}
		trafficRate = 150
		jitterEBPF, jitterWasm = 60*time.Millisecond, 100*time.Millisecond
		filler = 5000
	}

	tbl := telemetry.NewTable(
		"Fig 2b — update inconsistency during rollout (agent eventual consistency vs RDX+BBU)",
		"services", "kind", "system", "rollout span", "mixed reqs", "mixed window")

	for _, services := range appSizes {
		for _, kind := range []ext.Kind{ext.KindEBPF, ext.KindWasm} {
			jitter := jitterEBPF
			wasmFiller := filler
			if kind == ext.KindWasm {
				jitter = jitterWasm
				wasmFiller = filler / 8 // wasm ops are ~4 native emits each
			}
			app, err := cluster.NewApp(fmt.Sprintf("fig2b-%d-%v", services, kind), cluster.Options{
				Services:    services,
				ServiceCost: 50 * time.Microsecond,
				Seed:        int64(services),
			})
			if err != nil {
				return nil, err
			}
			cp := core.NewControlPlane()
			if err := app.ConnectControlPlane(cp); err != nil {
				app.Close()
				return nil, err
			}

			fillerFor := func() int {
				if kind == ext.KindWasm {
					return wasmFiller
				}
				return filler
			}

			// Baseline generation everywhere, then measure an agent
			// rollout to generation 2 under live traffic.
			if _, err := app.RDXRollout(cluster.GenerationExt(kind, 1, fillerFor()), false); err != nil {
				app.Close()
				return nil, err
			}
			tr := app.StartTraffic(trafficRate)
			time.Sleep(30 * time.Millisecond)
			agentRes, err := app.AgentRollout(cluster.GenerationExt(kind, 2, fillerFor()), jitter)
			if err != nil {
				tr.Stop()
				app.Close()
				return nil, err
			}
			time.Sleep(30 * time.Millisecond)
			tr.Stop()
			tbl.AddRowf(services, kind.String(), "agent",
				agentRes.Span, tr.MixedCount, tr.MixedWindow())

			// Same update via RDX broadcast with BBU.
			tr2 := app.StartTraffic(trafficRate)
			time.Sleep(30 * time.Millisecond)
			rep, err := app.RDXRollout(cluster.GenerationExt(kind, 3, fillerFor()), true)
			if err != nil {
				tr2.Stop()
				app.Close()
				return nil, err
			}
			time.Sleep(30 * time.Millisecond)
			tr2.Stop()
			tbl.AddRowf(services, kind.String(), "rdx+bbu",
				rep.Total, tr2.MixedCount, tr2.MixedWindow())

			app.Close()
		}
	}
	return tbl, nil
}

// Fig2c sweeps application request load against a KV node while the control
// path injects extensions, reproducing the contention collapse: completion
// rate tracks offered load when quiescent but degrades sharply under
// concurrent agent injections near CPU saturation.
func Fig2c(opts Options) (*telemetry.Table, error) {
	rates := []float64{100, 200, 300, 400}
	duration := 1500 * time.Millisecond
	injSize := 76000
	if opts.Quick {
		rates = []float64{100, 300}
		duration = 400 * time.Millisecond
		injSize = 11000
	}

	tbl := telemetry.NewTable(
		"Fig 2c — request completion under control-path contention (KV app)",
		"offered req/s", "quiescent req/s", "contended req/s", "degradation")

	for _, rate := range rates {
		quiet, err := fig2cPoint(rate, duration, 0, injSize)
		if err != nil {
			return nil, err
		}
		contended, err := fig2cPoint(rate, duration, 2, injSize)
		if err != nil {
			return nil, err
		}
		degr := 100 * (1 - contended/quiet)
		tbl.AddRowf(rate, quiet, contended, fmt.Sprintf("%.0f%%", degr))
	}
	return tbl, nil
}

// fig2cPoint measures achieved completion rate at one offered load with
// `injectors` concurrent agent injection loops stealing node cores.
func fig2cPoint(rate float64, duration time.Duration, injectors, injSize int) (float64, error) {
	n, err := node.New(node.Config{
		ID: "fig2c", Hooks: []string{"kv"}, Cores: 4, Latency: rdma.NoLatency(),
	})
	if err != nil {
		return 0, err
	}
	defer n.Close()
	srv := kvstore.NewServer(n, "")
	srv.BaseCost = 8 * time.Millisecond // 4 cores / 8ms ≈ 500 req/s capacity
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	go srv.Serve(l)

	stop := make(chan struct{})
	defer close(stop)
	ag := agent.New(n)
	prog := ext.FromEBPF(progen.MustGenerate(progen.Options{Size: injSize, Seed: 3, WithHelpers: true}))
	for i := 0; i < injectors; i++ {
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
				ag.Inject(context.Background(), "kv", prog)
			}
		}()
	}

	res, err := kvstore.LoadGen(func() (net.Conn, error) {
		return net.Dial("tcp", l.Addr().String())
	}, rate, duration, 8)
	if err != nil {
		return 0, err
	}
	return res.Achieved, nil
}

// RedisRow is one configuration of the §6 Redis-throughput experiment.
type RedisRow struct {
	Config   string
	Achieved float64
	P99      time.Duration
}

// Redis reproduces the §6 claim: agentless eBPF over RDX removes the
// per-node agent "tax" (injection CPU + periodic XState polling) that costs
// a saturated KV store ~25% of its throughput.
func Redis(opts Options) (*telemetry.Table, error) {
	duration := 2 * time.Second
	injSize := 95000
	pollEvery := 30 * time.Millisecond
	injectEvery := 50 * time.Millisecond
	if opts.Quick {
		duration = 600 * time.Millisecond
		injSize = 26000
		injectEvery = 30 * time.Millisecond
	}

	run := func(churn string) (*RedisRow, error) {
		rig, err := newNodeRigOn(core.NewControlPlane(), node.Config{
			ID: "redis-" + churn, Hooks: []string{"kv"}, Cores: 2, Latency: rdma.DefaultLatency(),
		})
		if err != nil {
			return nil, err
		}
		defer rig.close()
		n, cf := rig.node, rig.cf
		srv := kvstore.NewServer(n, "")
		srv.BaseCost = 4 * time.Millisecond // 2 cores / 4ms ≈ 500 req/s capacity
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		go srv.Serve(l)

		prog := ext.FromEBPF(progen.MustGenerate(progen.Options{
			Size: injSize, Seed: 5, WithHelpers: true, WithMap: true,
		}))
		stop := make(chan struct{})
		defer close(stop)

		switch churn {
		case "agent":
			ag := agent.New(n)
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
					}
					ag.Inject(context.Background(), "kv", prog)
					ag.PollState(context.Background())
					select {
					case <-stop:
						return
					case <-time.After(injectEvery):
					}
				}
			}()
			go func() {
				t := time.NewTicker(pollEvery)
				defer t.Stop()
				for {
					select {
					case <-stop:
						return
					case <-t.C:
						ag.PollState(context.Background())
					}
				}
			}()
		case "rdx":
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
					}
					cf.InjectExtension(prog, "kv")
					// Remote state introspection: reads go through the
					// RNIC, not the node cores. Bounded like a metrics
					// scrape (a full sweep would hammer the fabric).
					if xs, err := cf.ListXStates(); err == nil && len(xs) > 0 {
						if v, err := cf.AttachXState(xs[len(xs)-1]); err == nil {
							scanned := 0
							v.Iterate(func(_, _ []byte) bool {
								scanned++
								return scanned < 64
							})
						}
					}
					select {
					case <-stop:
						return
					case <-time.After(injectEvery):
					}
				}
			}()
		}

		// Saturating closed-loop load.
		res, err := kvstore.LoadGen(func() (net.Conn, error) {
			return net.Dial("tcp", l.Addr().String())
		}, 5000, duration, 8)
		if err != nil {
			return nil, err
		}
		return &RedisRow{
			Config:   churn,
			Achieved: res.Achieved,
			P99:      time.Duration(res.Latency.Percentile(99)),
		}, nil
	}

	tbl := telemetry.NewTable(
		"§6 — KV (Redis-like) throughput under extension churn",
		"config", "throughput req/s", "p99 latency", "vs idle")
	var idle float64
	for _, cfgName := range []string{"idle", "agent", "rdx"} {
		row, err := run(cfgName)
		if err != nil {
			return nil, fmt.Errorf("redis %s: %w", cfgName, err)
		}
		if cfgName == "idle" {
			idle = row.Achieved
		}
		delta := 100 * (row.Achieved/idle - 1)
		tbl.AddRowf(row.Config, row.Achieved, row.P99, fmt.Sprintf("%+.1f%%", delta))
	}
	return tbl, nil
}

// Mesh reproduces the §6 service-mesh claim: injecting Wasm filters via RDX
// instead of per-pod agents removes control-path CPU interference, improving
// microservice completion under churn (paper: up to 65%).
//
// Method: the agent configuration rolls filters out continuously (each
// rollout re-verifies and re-compiles on every node's cores); its *achieved*
// rollout rate is then used to pace the RDX configuration, so both
// configurations deliver the same policy-update workload. Per-update code
// write and icache (decode) costs are symmetric; what differs is where
// verification and compilation run — node cores vs the remote control plane.
func Mesh(opts Options) (*telemetry.Table, error) {
	services := 8
	rate := 920.0 // ~90% of aggregate hook capacity: the churn tax tips the balance
	duration := 2 * time.Second
	filler := 6000 // compile-heavy, execute-light filters (cold paths dominate)
	if opts.Quick {
		services = 4
		rate = 460
		duration = 800 * time.Millisecond
		filler = 3000
	}

	gens := []*ext.Extension{
		cluster.GenerationExt(ext.KindWasm, 11, filler),
		cluster.GenerationExt(ext.KindWasm, 12, filler),
	}

	run := func(churn string, pace time.Duration) (completed float64, p99 time.Duration, rollouts int64, err error) {
		app, err := cluster.NewApp("mesh-"+churn, cluster.Options{
			Services:     services,
			CoresPerNode: 1, // per-pod sidecars are CPU-capped; the agent shares that cap
			ServiceCost:  4 * time.Millisecond,
			Seed:         99,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		defer app.Close()
		cp := core.NewControlPlane()
		if err := app.ConnectControlPlane(cp); err != nil {
			return 0, 0, 0, err
		}

		stop := make(chan struct{})
		defer close(stop)
		var count atomic.Int64
		switch churn {
		case "agent":
			// Continuous rollouts: every one re-validates and re-compiles
			// the filter on every node's cores (the per-pod agent tax).
			go func() {
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := app.AgentRollout(gens[i%len(gens)], 0); err == nil {
						count.Add(1)
					}
				}
			}()
		case "rdx":
			// Compile once on the control plane, then deliver the same
			// number of updates the agent managed, paced accordingly.
			for _, e := range gens {
				if err := cp.Precompile(e, app.Services[0].Node.Arch); err != nil {
					return 0, 0, 0, err
				}
			}
			go func() {
				t := time.NewTicker(pace)
				defer t.Stop()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					case <-t.C:
						if _, err := app.RDXRollout(gens[i%len(gens)], false); err == nil {
							count.Add(1)
						}
					}
				}
			}()
		}

		tr := app.StartTraffic(rate)
		time.Sleep(duration)
		// Bound every metric to the measurement window: rollouts and
		// completions that land during drain/teardown are excluded.
		completedInWindow, _ := tr.Snapshot()
		rolloutsInWindow := count.Load()
		p99 = time.Duration(tr.Latency.Percentile(99))
		tr.Stop()
		return float64(completedInWindow) / duration.Seconds(), p99, rolloutsInWindow, nil
	}

	agentRate, agentP99, agentRollouts, err := run("agent", 0)
	if err != nil {
		return nil, err
	}
	if agentRollouts == 0 {
		agentRollouts = 1
	}
	pace := duration / time.Duration(agentRollouts)
	rdxRate, rdxP99, rdxRollouts, err := run("rdx", pace)
	if err != nil {
		return nil, err
	}

	tbl := telemetry.NewTable(
		"§6 — microservice completion under Wasm filter churn (matched update workload)",
		"config", "rollouts", "completion req/s", "p99 latency", "rdx vs agent")
	tbl.AddRowf("agent churn", agentRollouts, agentRate, agentP99, "")
	tbl.AddRowf("rdx churn", rdxRollouts, rdxRate, rdxP99,
		fmt.Sprintf("%+.0f%%", 100*(rdxRate/agentRate-1)))
	return tbl, nil
}
