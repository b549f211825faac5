// Top-level benchmarks: one per paper table/figure plus the ablations
// DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Figure-level experiments (Fig 2a–Fig 5) also have richer drivers in
// internal/experiments and cmd/rdxbench; the benchmarks here express the
// same comparisons as standard testing.B micro-measurements.
package rdx_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rdx"
	"rdx/internal/agent"
	"rdx/internal/cluster"
	"rdx/internal/core"
	"rdx/internal/ebpf"
	"rdx/internal/ebpf/jit"
	"rdx/internal/ebpf/progen"
	"rdx/internal/ebpf/verifier"
	"rdx/internal/ext"
	"rdx/internal/native"
	"rdx/internal/node"
	"rdx/internal/pipeline"
	"rdx/internal/rdma"
	"rdx/internal/xabi"
)

// benchSizes are the Fig 2a / Fig 4a program sizes, truncated to keep
// `go test -bench .` tolerable; the full sweep lives in cmd/rdxbench.
var benchSizes = []int{1300, 11000, 49000}

func benchRig(b *testing.B, lat *rdma.LatencyModel) (*rdx.Node, *core.CodeFlow) {
	b.Helper()
	n, err := rdx.NewNode(rdx.NodeConfig{
		ID: b.Name(), Hooks: []string{"ingress"}, Cores: 4, Latency: lat,
	})
	if err != nil {
		b.Fatal(err)
	}
	fab := rdx.NewFabric()
	l, err := fab.Listen(b.Name())
	if err != nil {
		b.Fatal(err)
	}
	go n.Serve(l)
	conn, err := fab.Dial(b.Name())
	if err != nil {
		b.Fatal(err)
	}
	cf, err := rdx.NewControlPlane().CreateCodeFlow(conn)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		cf.Close()
		n.Close()
	})
	return n, cf
}

// --- Fig 2a / Fig 4a (agent side): per-injection verify+JIT+load cost. ---

func BenchmarkFig2aAgentInject(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("insns=%d", size), func(b *testing.B) {
			n, _ := benchRig(b, rdma.NoLatency())
			ag := agent.New(n)
			e := ext.FromEBPF(progen.MustGenerate(progen.Options{Size: size, Seed: 1, WithHelpers: true}))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ag.Inject(context.Background(), "ingress", e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig 4a (RDX side): warm-registry remote deployment. ---

func BenchmarkFig4aRDXDeploy(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("insns=%d", size), func(b *testing.B) {
			_, cf := benchRig(b, rdma.DefaultLatency())
			e := ext.FromEBPF(progen.MustGenerate(progen.Options{Size: size, Seed: 1, WithHelpers: true}))
			if _, err := cf.InjectExtension(e, "ingress"); err != nil { // warm
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cf.InjectExtension(e, "ingress"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig 4b components: the individual pipeline stages. ---

func BenchmarkFig4bVerify(b *testing.B) {
	p := progen.MustGenerate(progen.Options{Size: 1300, Seed: 1, WithHelpers: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := verifier.Verify(p, verifier.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4bJITCompile(b *testing.B) {
	p := progen.MustGenerate(progen.Options{Size: 1300, Seed: 1, WithHelpers: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jit.Compile(p, native.ArchX64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4bLink(b *testing.B) {
	p := progen.MustGenerate(progen.Options{Size: 1300, Seed: 1, WithHelpers: true})
	bin, err := jit.Compile(p, native.ArchX64)
	if err != nil {
		b.Fatal(err)
	}
	got := map[string]uint64{}
	for _, id := range p.HelperRefs() {
		got[jit.HelperSymbol(id)] = 0x1000 + uint64(id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := bin.Clone()
		if err := native.Link(cp, func(_ native.RelocKind, sym string) (uint64, bool) {
			a, ok := got[sym]
			return a, ok
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 5 components: cc_event flush vs natural eviction. ---

func BenchmarkFig5CCEvent(b *testing.B) {
	_, cf := benchRig(b, rdma.DefaultLatency())
	hookAddr, err := cf.HookAddr("ingress")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cf.CCEvent(hookAddr); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 1 primitives. ---

func BenchmarkTable1RemoteAlloc(b *testing.B) {
	_, cf := benchRig(b, rdma.DefaultLatency())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cf.AllocCode(256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Tx(b *testing.B) {
	_, cf := benchRig(b, rdma.DefaultLatency())
	hookAddr, _ := cf.HookAddr("ingress")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := cf.Tx(
			[]core.TxWrite{{Addr: hookAddr + node.HookOffStaged, Qword: uint64(i + 1)}},
			core.QwordSwap{Addr: hookAddr + node.HookOffVersion, New: uint64(i + 1)},
		)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1MutualExcl(b *testing.B) {
	_, cf := benchRig(b, rdma.DefaultLatency())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok, err := cf.MutualExcl("ingress", 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := cf.Unlock(tok); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1DeployXState(b *testing.B) {
	_, cf := benchRig(b, rdma.DefaultLatency())
	spec := rdx.MapSpec{Name: "bench", Type: xabi.MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4000 == 3999 {
			// The Meta-XState index is bounded (4096 entries per node);
			// swap in a fresh node without counting the setup.
			b.StopTimer()
			_, cf = benchRig(b, rdma.DefaultLatency())
			b.StartTimer()
		}
		spec.Name = fmt.Sprintf("bench%d", i)
		if _, err := cf.DeployXState(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Broadcast(b *testing.B) {
	const nodes = 4
	fab := rdx.NewFabric()
	cp := rdx.NewControlPlane()
	var group core.Group
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("bc%d", i)
		n, err := rdx.NewNode(rdx.NodeConfig{ID: id, Hooks: []string{"ingress"}, Latency: rdma.DefaultLatency()})
		if err != nil {
			b.Fatal(err)
		}
		l, _ := fab.Listen(id)
		go n.Serve(l)
		conn, _ := fab.Dial(id)
		cf, err := cp.CreateCodeFlow(conn)
		if err != nil {
			b.Fatal(err)
		}
		group = append(group, cf)
		b.Cleanup(n.Close)
	}
	e := cluster.GenerationExt(ext.KindEBPF, 1, 100)
	if _, err := group.Broadcast(e, core.BroadcastOptions{Hook: "ingress"}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := group.Broadcast(e, core.BroadcastOptions{Hook: "ingress", BBU: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Data-path benchmarks. ---

func BenchmarkExecHookEBPF(b *testing.B) {
	n, cf := benchRig(b, rdma.NoLatency())
	e := ext.FromEBPF(progen.MustGenerate(progen.Options{Size: 128, Seed: 1, WithHelpers: true}))
	if _, err := cf.InjectExtension(e, "ingress"); err != nil {
		b.Fatal(err)
	}
	ctx := make([]byte, rdx.CtxSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.ExecHook("ingress", ctx, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecHookEmpty(b *testing.B) {
	n, _ := benchRig(b, rdma.NoLatency())
	ctx := make([]byte, rdx.CtxSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.ExecHook("ingress", ctx, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §4). ---

// BenchmarkAblationNoCache disables the compile-once registry: every RDX
// deployment re-validates and re-compiles on the control plane.
func BenchmarkAblationNoCache(b *testing.B) {
	for _, mode := range []string{"cached", "no-cache"} {
		b.Run(mode, func(b *testing.B) {
			n, err := rdx.NewNode(rdx.NodeConfig{ID: b.Name(), Hooks: []string{"ingress"}, Latency: rdma.DefaultLatency()})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(n.Close)
			fab := rdx.NewFabric()
			l, _ := fab.Listen(b.Name())
			go n.Serve(l)
			cp := rdx.NewControlPlane()
			cp.DisableCache = mode == "no-cache"
			conn, _ := fab.Dial(b.Name())
			cf, err := cp.CreateCodeFlow(conn)
			if err != nil {
				b.Fatal(err)
			}
			e := ext.FromEBPF(progen.MustGenerate(progen.Options{Size: 11000, Seed: 1, WithHelpers: true}))
			if _, err := cf.InjectExtension(e, "ingress"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cf.InjectExtension(e, "ingress"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationXStatePrealloc contrasts Meta-XState demand allocation
// against the strawman of §3.4: pre-registering a maximal-size instance per
// possible type. The metric of interest is bytes of scratchpad consumed per
// deployed map (reported as bytes-allocated-equivalent via custom metric).
func BenchmarkAblationXStatePrealloc(b *testing.B) {
	specSmall := ebpf.MapSpec{Name: "s", Type: xabi.MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 16}
	specMax := ebpf.MapSpec{Name: "m", Type: xabi.MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 4096}
	b.Run("meta-indirection", func(b *testing.B) {
		var total uint64
		for i := 0; i < b.N; i++ {
			total += mapFootprint(specSmall)
		}
		b.ReportMetric(float64(total)/float64(b.N), "scratch-bytes/map")
	})
	b.Run("prealloc-max", func(b *testing.B) {
		var total uint64
		for i := 0; i < b.N; i++ {
			total += mapFootprint(specMax)
		}
		b.ReportMetric(float64(total)/float64(b.N), "scratch-bytes/map")
	})
}

func mapFootprint(spec ebpf.MapSpec) uint64 {
	return uint64(experimentsMapSize(spec))
}

// BenchmarkAblationDirectWriteVsTx compares publishing an extension with a
// staged-write-then-CAS transaction (rdx_tx) against writing the blob
// directly over the live one: the direct write is faster but exposes torn
// code to concurrent executors (see TestTornReadWithoutTx in internal/mem).
func BenchmarkAblationDirectWriteVsTx(b *testing.B) {
	payload := make([]byte, 4096)
	for _, mode := range []string{"tx-staged", "direct-overwrite"} {
		b.Run(mode, func(b *testing.B) {
			_, cf := benchRig(b, rdma.DefaultLatency())
			hookAddr, _ := cf.HookAddr("ingress")
			// A fixed target blob area for the direct mode.
			target, err := cf.AllocCode(len(payload))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "direct-overwrite" {
					// Unsafe publish: overwrite the live blob in place.
					if err := cf.Remote.WriteBytes(target, payload); err != nil {
						b.Fatal(err)
					}
					continue
				}
				// Safe publish: fresh area + atomic pointer flip.
				blob, err := cf.AllocCode(len(payload))
				if err != nil {
					b.Fatal(err)
				}
				if err := cf.Remote.WriteBytes(blob, payload); err != nil {
					b.Fatal(err)
				}
				if err := cf.Tx(nil, core.QwordSwap{Addr: hookAddr + node.HookOffStaged, New: blob}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBBU measures what Big Bubble Update costs on top of a
// plain broadcast (gate raise + drain + clear).
func BenchmarkAblationBBU(b *testing.B) {
	for _, bbu := range []bool{false, true} {
		b.Run(fmt.Sprintf("bbu=%v", bbu), func(b *testing.B) {
			fab := rdx.NewFabric()
			cp := rdx.NewControlPlane()
			var group core.Group
			for i := 0; i < 3; i++ {
				id := fmt.Sprintf("%s-%d", b.Name(), i)
				n, err := rdx.NewNode(rdx.NodeConfig{ID: id, Hooks: []string{"ingress"}, Latency: rdma.DefaultLatency()})
				if err != nil {
					b.Fatal(err)
				}
				l, _ := fab.Listen(id)
				go n.Serve(l)
				conn, _ := fab.Dial(id)
				cf, err := cp.CreateCodeFlow(conn)
				if err != nil {
					b.Fatal(err)
				}
				group = append(group, cf)
				b.Cleanup(n.Close)
			}
			e := cluster.GenerationExt(ext.KindEBPF, 2, 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := group.Broadcast(e, core.BroadcastOptions{Hook: "ingress", BBU: bbu}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Engine micro-benchmarks. ---

func BenchmarkVMInterpreter(b *testing.B) {
	benchEngines(b, "vm")
}

func BenchmarkNativeEngine(b *testing.B) {
	benchEngines(b, "native")
}

func benchEngines(b *testing.B, kind string) {
	p := progen.MustGenerate(progen.Options{Size: 1300, Seed: 1})
	ctx := make([]byte, xabi.CtxSize)
	switch kind {
	case "vm":
		machine := newBenchVM()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := machine.Run(p, ctx); err != nil {
				b.Fatal(err)
			}
		}
	case "native":
		prog, eng, env := compileForBench(b, p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(prog, env, ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkVerifierThroughput reports verifier cost per instruction at the
// largest paper size.
func BenchmarkVerifierThroughput(b *testing.B) {
	p := progen.MustGenerate(progen.Options{Size: 95000, Seed: 1, WithHelpers: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := verifier.Verify(p, verifier.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(95000), "insns/op")
}

// BenchmarkPipelineInjection rolls one extension out to 8 nodes per
// iteration, comparing the seed path — a sequential per-node
// InjectExtension loop — against the injection scheduler's batched fan-out
// (OpBatch chains, coalesced doorbells, parallel nodes). The fabric is
// latency-bound (500 µs per verb) so sequential round trips cost wall-clock
// time, as they do on a real link; the registry is warmed outside the
// timer, isolating the injection path itself.
func BenchmarkPipelineInjection(b *testing.B) {
	const nodes = 8
	lat := &rdma.LatencyModel{Base: 500 * time.Microsecond, BytesPerSec: 3.125e9}

	fleet := func(b *testing.B, prefix string) (*core.ControlPlane, []*core.CodeFlow) {
		b.Helper()
		fab := rdx.NewFabric()
		cp := rdx.NewControlPlane()
		var cfs []*core.CodeFlow
		for i := 0; i < nodes; i++ {
			id := fmt.Sprintf("%s%d", prefix, i)
			n, err := rdx.NewNode(rdx.NodeConfig{ID: id, Hooks: []string{"ingress"}, Latency: lat})
			if err != nil {
				b.Fatal(err)
			}
			l, _ := fab.Listen(id)
			go n.Serve(l)
			conn, _ := fab.Dial(id)
			cf, err := cp.CreateCodeFlow(conn)
			if err != nil {
				b.Fatal(err)
			}
			cfs = append(cfs, cf)
			b.Cleanup(n.Close)
		}
		return cp, cfs
	}
	// Distinct pre-compiled extensions per iteration: repeats would hit the
	// resident-blob fast path and measure nothing but the commit CAS.
	pool := func(b *testing.B, cp *core.ControlPlane, arch native.Arch) []*ext.Extension {
		b.Helper()
		exts := make([]*ext.Extension, b.N)
		for i := range exts {
			exts[i] = cluster.GenerationExt(ext.KindEBPF, i, 100)
			if err := cp.Precompile(exts[i], arch); err != nil {
				b.Fatal(err)
			}
		}
		return exts
	}

	b.Run("sequential", func(b *testing.B) {
		cp, cfs := fleet(b, "seq")
		exts := pool(b, cp, cfs[0].Arch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, cf := range cfs {
				if _, err := cf.InjectExtension(exts[i], "ingress"); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		cp, cfs := fleet(b, "bat")
		exts := pool(b, cp, cfs[0].Arch)
		sched := cp.Scheduler()
		targets := make([]pipeline.Target, len(cfs))
		for i, cf := range cfs {
			targets[i] = cf
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sched.Inject(pipeline.Request{Ext: exts[i], Hook: "ingress", Targets: targets})
			if err != nil {
				b.Fatal(err)
			}
			if ferr := res.FirstErr(); ferr != nil {
				b.Fatal(ferr)
			}
		}
	})
}
