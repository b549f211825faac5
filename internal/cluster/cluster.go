// Package cluster assembles multi-node microservice applications over the
// in-process RDMA fabric and drives the paper's distributed experiments:
// update-consistency windows (Fig 2b), control/data-path contention
// (Fig 2c, §6), and fast consistent rollouts via collective CodeFlow (§4).
//
// An App is a DAG of services, one per node, each exposing a "svc" hook.
// Requests walk root-to-leaf chains through the DAG; at every hop the
// service executes its attached extension. A request that observes more
// than one distinct extension logic along its path is *inconsistent* — the
// safety hazard the paper's Obs. #2 quantifies.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"rdx/internal/agent"
	"rdx/internal/core"
	"rdx/internal/cpu"
	"rdx/internal/ebpf"
	"rdx/internal/ext"
	"rdx/internal/node"
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
	"rdx/internal/wasm"
	"rdx/internal/xabi"
)

// Hook is the per-service hook point name.
const Hook = "svc"

// Options configure an App.
type Options struct {
	Services     int
	CoresPerNode int           // default 2
	ServiceCost  time.Duration // per-hop request CPU cost (default 80µs)
	Latency      *rdma.LatencyModel
	Seed         int64
}

// Service is one microservice instance.
type Service struct {
	Node  *node.Node
	Agent *agent.Agent
	CF    *core.CodeFlow // nil until ConnectControlPlane
}

// App is a deployed microservice application.
type App struct {
	Name     string
	Services []*Service
	// Chains are the request paths (service index sequences) through the
	// DAG, sampled uniformly by the traffic generator.
	Chains [][]int

	fabric      *rdma.Fabric
	serviceCost time.Duration
	rng         *rand.Rand
	rngMu       sync.Mutex

	// listeners retains each node's fabric listener so RestartNode can
	// close and re-open the same name, modelling an endpoint restart.
	lisMu     sync.Mutex
	listeners []net.Listener
}

// NewApp builds an app with a layered service DAG: services/3 layers (min
// 2), edges to 1–2 services in the next layer, chains enumerated by random
// walks. Deterministic for a seed.
func NewApp(name string, opts Options) (*App, error) {
	if opts.Services < 2 {
		return nil, fmt.Errorf("cluster: app needs ≥2 services")
	}
	if opts.CoresPerNode == 0 {
		opts.CoresPerNode = 2
	}
	if opts.ServiceCost == 0 {
		opts.ServiceCost = 80 * time.Microsecond
	}
	if opts.Latency == nil {
		opts.Latency = rdma.DefaultLatency()
	}
	app := &App{
		Name:        name,
		fabric:      rdma.NewFabric(),
		serviceCost: opts.ServiceCost,
		rng:         rand.New(rand.NewSource(opts.Seed ^ 0xC0FFEE)),
	}
	for i := 0; i < opts.Services; i++ {
		n, err := node.New(node.Config{
			ID:      fmt.Sprintf("%s-svc%d", name, i),
			Hooks:   []string{Hook},
			Cores:   opts.CoresPerNode,
			Latency: opts.Latency,
			Seed:    opts.Seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		l, err := app.fabric.Listen(n.ID)
		if err != nil {
			return nil, err
		}
		go n.Serve(l)
		app.listeners = append(app.listeners, l)
		app.Services = append(app.Services, &Service{Node: n, Agent: agent.New(n)})
	}
	app.buildChains(opts.Services)
	return app, nil
}

// buildChains lays services into layers and samples root-to-leaf walks.
func (a *App) buildChains(services int) {
	layers := services / 3
	if layers < 2 {
		layers = 2
	}
	if layers > 6 {
		layers = 6
	}
	// Assign services round-robin to layers; layer 0 holds service 0.
	layerOf := make([]int, services)
	byLayer := make([][]int, layers)
	for i := 0; i < services; i++ {
		l := i % layers
		layerOf[i] = l
		byLayer[l] = append(byLayer[l], i)
	}
	_ = layerOf
	// Sample chains: from each layer pick one service, 2*services walks.
	nChains := 2 * services
	for c := 0; c < nChains; c++ {
		var chain []int
		depth := 2 + a.rng.Intn(layers-1)
		for l := 0; l < depth; l++ {
			candidates := byLayer[l]
			chain = append(chain, candidates[a.rng.Intn(len(candidates))])
		}
		a.Chains = append(a.Chains, chain)
	}
}

// ConnectControlPlane binds a CodeFlow to every service node.
func (a *App) ConnectControlPlane(cp *core.ControlPlane) error {
	for _, s := range a.Services {
		conn, err := a.fabric.Dial(s.Node.ID)
		if err != nil {
			return err
		}
		cf, err := cp.CreateCodeFlow(conn)
		if err != nil {
			return err
		}
		s.CF = cf
	}
	return nil
}

// ConnectControlPlaneReconn binds a CodeFlow to every service node over a
// reconnecting QP: the control-plane transport survives endpoint restarts
// (RestartNode) mid-rollout, replaying idempotent verbs on the re-dialed
// connection. timeout bounds each verb (zero keeps the ReconnQP default).
func (a *App) ConnectControlPlaneReconn(cp *core.ControlPlane, timeout time.Duration) error {
	for _, s := range a.Services {
		id := s.Node.ID
		qp, err := rdma.NewReconnQP(rdma.ReconnConfig{
			Dial:        func() (net.Conn, error) { return a.fabric.Dial(id) },
			VerbTimeout: timeout,
			Logf:        func(string, ...interface{}) {},
		})
		if err != nil {
			return err
		}
		cf, err := cp.CreateCodeFlowQP(qp)
		if err != nil {
			return err
		}
		s.CF = cf
	}
	return nil
}

// RestartNode models an endpoint restart of service i: the fabric listener
// closes, every control-plane QP into the node is severed, and the same
// endpoint immediately re-listens under the same name with its MR table
// intact. In-process request traffic (ExecHook) is unaffected — only the
// control plane's QPs flap, which is exactly the fault a ReconnQP-backed
// rollout must ride out.
func (a *App) RestartNode(i int) error {
	s := a.Services[i]
	a.lisMu.Lock()
	old := a.listeners[i]
	a.lisMu.Unlock()
	old.Close()
	s.Node.RNIC.CloseConns()
	l, err := a.fabric.Listen(s.Node.ID)
	if err != nil {
		return err
	}
	a.lisMu.Lock()
	a.listeners[i] = l
	a.lisMu.Unlock()
	go s.Node.Serve(l)
	return nil
}

// Group returns the collective CodeFlow over all services.
func (a *App) Group() core.Group {
	g := make(core.Group, 0, len(a.Services))
	for _, s := range a.Services {
		g = append(g, s.CF)
	}
	return g
}

// Close tears the app down.
func (a *App) Close() {
	for _, s := range a.Services {
		if s.CF != nil {
			s.CF.Close()
		}
		s.Node.Close()
	}
}

// pickChain samples a request path.
func (a *App) pickChain() []int {
	a.rngMu.Lock()
	c := a.Chains[a.rng.Intn(len(a.Chains))]
	a.rngMu.Unlock()
	return c
}

// RequestResult is one end-to-end request's outcome.
type RequestResult struct {
	Verdicts []uint64 // per-hop extension verdicts (generation stamps)
	Mixed    bool     // observed >1 distinct non-pass logic on the path
	Err      error
	Latency  time.Duration
}

// DoRequest walks one request through a chain: per hop, wait out any BBU
// gate, then execute the service (simulated CPU cost + extension) on the
// node's cores.
func (a *App) DoRequest(ctx context.Context, flowID uint64) RequestResult {
	chain := a.pickChain()
	res := RequestResult{}
	start := time.Now()
	seen := map[uint64]bool{}
	// Big-bubble admission: the request registers at its ingress service
	// and is buffered there while an update bubble is in progress. Once
	// admitted it runs to completion before any BBU flip can land.
	ingress := a.Services[chain[0]].Node
	leave, err := ingress.EnterRequest(ctx, Hook)
	if err != nil {
		res.Err = err
		return res
	}
	defer leave()
	for _, svcIdx := range chain {
		s := a.Services[svcIdx]
		var verdict uint64
		var hookErr error
		err := s.Node.Cores.Run(ctx, func() {
			cpu.Burn(a.serviceCost)
			ctxBuf := make([]byte, xabi.CtxSize)
			putU64(ctxBuf[xabi.CtxOffFlowID:], flowID)
			r, err := s.Node.ExecHook(Hook, ctxBuf, nil)
			verdict, hookErr = r.Verdict, err
		})
		if err != nil {
			res.Err = err
			return res
		}
		if hookErr != nil && !errors.Is(hookErr, node.ErrDropped) {
			res.Err = hookErr
			return res
		}
		res.Verdicts = append(res.Verdicts, verdict)
		if verdict != xabi.VerdictPass { // generation-stamped logic
			seen[verdict] = true
		}
	}
	res.Mixed = len(seen) > 1
	res.Latency = time.Since(start)
	return res
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// Traffic drives open-loop requests and aggregates consistency stats.
type Traffic struct {
	Completed  uint64
	Dropped    uint64
	MixedCount uint64
	FirstMixed time.Time
	LastMixed  time.Time
	Latency    *telemetry.Histogram

	mu     sync.Mutex
	cancel context.CancelFunc
	done   chan struct{}
}

// StartTraffic launches an open-loop generator at the target rate. Stop it
// to collect results.
func (a *App) StartTraffic(rate float64) *Traffic {
	ctx, cancel := context.WithCancel(context.Background())
	tr := &Traffic{Latency: telemetry.NewHistogram(), cancel: cancel, done: make(chan struct{})}
	interval := time.Duration(float64(time.Second) / rate)
	go func() {
		defer close(tr.done)
		var wg sync.WaitGroup
		next := time.Now()
		flow := uint64(0)
		for {
			select {
			case <-ctx.Done():
				wg.Wait()
				return
			default:
			}
			now := time.Now()
			if now.Before(next) {
				time.Sleep(next.Sub(now))
			}
			next = next.Add(interval)
			flow++
			wg.Add(1)
			go func(flow uint64) {
				defer wg.Done()
				res := a.DoRequest(ctx, flow)
				tr.record(res)
			}(flow)
		}
	}()
	return tr
}

func (tr *Traffic) record(res RequestResult) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if res.Err != nil {
		tr.Dropped++
		return
	}
	tr.Completed++
	tr.Latency.RecordDuration(res.Latency)
	if res.Mixed {
		tr.MixedCount++
		now := time.Now()
		if tr.FirstMixed.IsZero() {
			tr.FirstMixed = now
		}
		tr.LastMixed = now
	}
}

// Snapshot returns (completed, mixed) counters at this instant, for
// measurements bounded to a window while the generator keeps running.
func (tr *Traffic) Snapshot() (completed, mixed uint64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.Completed, tr.MixedCount
}

// Stop halts the generator and returns the traffic handle for inspection.
func (tr *Traffic) Stop() *Traffic {
	tr.cancel()
	<-tr.done
	return tr
}

// MixedWindow is the span during which inconsistent requests were observed.
func (tr *Traffic) MixedWindow() time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.FirstMixed.IsZero() {
		return 0
	}
	return tr.LastMixed.Sub(tr.FirstMixed)
}

// GenerationExt builds a generation-stamped extension: it returns verdict
// 100+gen, so traffic can detect which logic version processed each hop.
// filler controls code size — and therefore validation, compilation, and
// injection cost — but lives behind never-taken branches, like the cold
// paths of a production filter: requests execute a handful of instructions
// while the toolchain still has to process all of them.
func GenerationExt(kind ext.Kind, gen int, filler int) *ext.Extension {
	verdict := int64(100 + gen)
	switch kind {
	case ext.KindWasm:
		body := wasm.NewBody()
		body.I64Const(0).LocalSet(0)
		body.I32Const(0).If(wasm.BlockEmpty) // cold path: statically reachable, never taken
		for i := 0; i < filler; i++ {
			body.LocalGet(0).I64Const(int64(i)).Raw(wasm.OpI64Add).LocalSet(0)
		}
		body.End()
		body.I64Const(verdict).End()
		m := wasm.SimpleFilter(fmt.Sprintf("gen%d", gen), 0, []wasm.ValType{wasm.I64}, body.Bytes())
		return ext.FromWasm(m)
	default: // eBPF
		insns := []ebpf.Instruction{
			ebpf.Mov64Imm(ebpf.R7, 1),
			ebpf.Mov64Imm(ebpf.R8, 0),
		}
		// Cold path, chunked to respect the 16-bit branch displacement.
		remaining := filler
		for remaining > 0 {
			chunk := remaining
			if chunk > 8000 {
				chunk = 8000
			}
			insns = append(insns, ebpf.JmpImm(ebpf.JmpJEQ, ebpf.R8, 0, int16(chunk)))
			for i := 0; i < chunk; i++ {
				insns = append(insns, ebpf.Alu64Imm(ebpf.AluAdd, ebpf.R7, int32(i&0xFF)))
			}
			remaining -= chunk
		}
		insns = append(insns,
			ebpf.Mov64Imm(ebpf.R0, int32(verdict)),
			ebpf.Exit(),
		)
		p := ebpf.NewProgram(fmt.Sprintf("gen%d", gen), ebpf.ProgTypeSocketFilter, insns)
		return ext.FromEBPF(p)
	}
}

// RolloutResult summarizes an agent-based (eventually consistent) rollout.
type RolloutResult struct {
	Span    time.Duration   // first injection start → last completion
	PerNode []time.Duration // per-node injection latency
}

// AgentRollout pushes the extension to every service through its local
// agent, in parallel, with per-node propagation jitter — the
// state-of-the-art rollout of Fig 1(a). Each node's verify/JIT runs on that
// node's cores, contending with request traffic; completion is staggered,
// which is what opens the inconsistency window.
func (a *App) AgentRollout(e *ext.Extension, jitter time.Duration) (RolloutResult, error) {
	var res RolloutResult
	res.PerNode = make([]time.Duration, len(a.Services))
	errs := make([]error, len(a.Services))
	start := time.Now()
	var wg sync.WaitGroup
	for i, s := range a.Services {
		wg.Add(1)
		go func(i int, s *Service) {
			defer wg.Done()
			if jitter > 0 {
				a.rngMu.Lock()
				d := time.Duration(a.rng.Int63n(int64(jitter)))
				a.rngMu.Unlock()
				time.Sleep(d)
			}
			t0 := time.Now()
			_, errs[i] = s.Agent.Inject(context.Background(), Hook, e)
			res.PerNode[i] = time.Since(t0)
		}(i, s)
	}
	wg.Wait()
	res.Span = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// RDXRollout deploys through the collective CodeFlow.
func (a *App) RDXRollout(e *ext.Extension, bbu bool) (core.BroadcastReport, error) {
	return a.Group().Broadcast(e, core.BroadcastOptions{Hook: Hook, BBU: bbu})
}
