package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"rdx/internal/controlha"
	"rdx/internal/ebpf"
	"rdx/internal/ebpf/jit"
	"rdx/internal/ebpf/verifier"
	"rdx/internal/mem"
	"rdx/internal/native"
	"rdx/internal/rdma"
	"rdx/internal/xabi"
)

// probe executes the hook on the fleet at 1 kHz while the traced window
// runs: the paper's claim that injection leaves the data path alone.
type probe struct {
	ns  []float64 // per-execution time
	bad int       // errors, and verdicts no generation of the workload returns
}

// startProbe runs until stop is closed; wait for done before reading.
func (rn *run) startProbe(seed int64, stop <-chan struct{}) (*probe, *sync.WaitGroup) {
	pr := &probe{ns: make([]float64, 0, 1<<16)}
	valid := map[uint64]bool{}
	for _, v := range rn.in.verdict {
		valid[v] = true
	}
	names := rn.rig.plan.nodes
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		ctx := make([]byte, xabi.CtxSize)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			n := rn.rig.nodes[names[rng.Intn(len(names))]]
			t0 := time.Now()
			res, err := n.ExecHook(hookName, ctx, nil)
			pr.ns = append(pr.ns, float64(time.Since(t0)))
			if err != nil || (len(valid) > 0 && !valid[res.Verdict]) {
				pr.bad++
			}
		}
	}()
	return pr, &wg
}

// calibration holds the single-layer numbers measured on a quiet rig after
// the window: the floor under the wire, and the compiler's unit costs.
type calibration struct {
	write128US, write128Allocs    float64
	chainTriggerUS                float64
	verifyNSPerInsn, jitNSPerInsn float64
	linkUS                        float64
	execNS                        float64
	replayUSPerKEntry             float64
}

const calibrationCalls = 2000

func (rn *run) calibrate(seed int64) (*calibration, error) {
	cal := &calibration{}
	if err := rn.calibrateWrite(cal); err != nil {
		return nil, fmt.Errorf("write calibration: %w", err)
	}
	if err := rn.calibrateChain(cal); err != nil {
		return nil, fmt.Errorf("chain calibration: %w", err)
	}
	if err := rn.calibrateCompiler(cal, seed); err != nil {
		return nil, fmt.Errorf("compiler calibration: %w", err)
	}

	n := rn.rig.nodes[rn.rig.plan.nodes[0]]
	ctx := make([]byte, xabi.CtxSize)
	t0 := time.Now()
	for i := 0; i < calibrationCalls; i++ {
		n.ExecHook(hookName, ctx, nil) //nolint:errcheck // verify() has checked every hook
	}
	cal.execNS = float64(time.Since(t0)) / calibrationCalls

	data := rn.rig.hosts[0].JournalBytes()
	var per []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		st, err := controlha.Replay(data)
		if err != nil {
			return nil, fmt.Errorf("replay calibration: %w", err)
		}
		per = append(per, float64(time.Since(t0).Microseconds())/(float64(st.Entries)/1000))
	}
	cal.replayUSPerKEntry = median(per)
	return cal, nil
}

// calibrateWrite times a 128-byte WRITE to a plain endpoint over the same
// fabric and latency model: the round trip every verb of the rig pays, and
// the allocations it must not make.
func (rn *run) calibrateWrite(cal *calibration) error {
	arena := mem.NewArena(1 << 16)
	ep := rdma.NewEndpoint(arena, rdma.DefaultLatency())
	defer ep.Close()
	mr, err := ep.RegisterMR("cal", 0, 1<<16, rdma.PermAll)
	if err != nil {
		return err
	}
	l, err := rn.rig.fab.Listen("calibration")
	if err != nil {
		return err
	}
	go ep.Serve(l)
	qp, err := rn.rig.fab.DialQP("calibration")
	if err != nil {
		return err
	}
	defer qp.Close()
	buf := make([]byte, 128)
	for i := 0; i < 64; i++ {
		if err := qp.Write(mr.RKey, 0, buf); err != nil {
			return err
		}
	}
	rtt := make([]float64, calibrationCalls)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range rtt {
		t0 := time.Now()
		if err := qp.Write(mr.RKey, 0, buf); err != nil {
			return err
		}
		rtt[i] = float64(time.Since(t0)) / 1e3
	}
	runtime.ReadMemStats(&after)
	cal.write128US = median(rtt)
	cal.write128Allocs = float64(after.Mallocs-before.Mallocs) / calibrationCalls
	return nil
}

// calibrateChain times one lease renewal as a NIC-resident verb chain on
// shard 0's standby host: the baseline for journal-as-chain.
func (rn *run) calibrateChain(cal *calibration) error {
	lead := rn.leaders()[0]
	co, err := controlha.AttachChain(lead.term, lead.stbyQ)
	if err != nil {
		return err
	}
	rtt := make([]float64, calibrationCalls)
	expiry := uint64(time.Now().Add(leaseTTL).UnixNano())
	for i := range rtt {
		t0 := time.Now()
		if _, err := co.TriggerRenew(context.Background(), expiry); err != nil {
			return err
		}
		rtt[i] = float64(time.Since(t0)) / 1e3
	}
	cal.chainTriggerUS = median(rtt)
	return nil
}

// calibrateCompiler times verifier, JIT and linker alone, single-threaded,
// on the cold workload's base programs for this seed.
func (rn *run) calibrateCompiler(cal *calibration, seed int64) error {
	got := rn.rig.nodes[rn.rig.plan.nodes[0]].GOT()
	resolve := func(_ native.RelocKind, sym string) (uint64, bool) {
		a, ok := got[sym]
		return a, ok
	}
	bases, err := coldBases(seed)
	if err != nil {
		return err
	}
	var verify, compile, link []float64
	for _, p := range bases {
		v, c, l, err := timeCompiler(p, resolve)
		if err != nil {
			return err
		}
		verify = append(verify, v/float64(len(p.Insns)))
		compile = append(compile, c/float64(len(p.Insns)))
		link = append(link, l/1e3)
	}
	cal.verifyNSPerInsn = mean(verify)
	cal.jitNSPerInsn = mean(compile)
	cal.linkUS = mean(link)
	return nil
}

// timeCompiler returns the median ns of verifying, compiling and linking p.
func timeCompiler(p *ebpf.Program, resolve func(native.RelocKind, string) (uint64, bool)) (verify, compile, link float64, err error) {
	const reps = 15
	var vs, cs, ls []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err = verifier.Verify(p, verifier.Config{}); err != nil {
			return
		}
		t1 := time.Now()
		var bin *native.Binary
		if bin, err = jit.Compile(p, native.ArchX64); err != nil {
			return
		}
		t2 := time.Now()
		if err = native.Link(bin, resolve); err != nil {
			return
		}
		t3 := time.Now()
		vs = append(vs, float64(t1.Sub(t0)))
		cs = append(cs, float64(t2.Sub(t1)))
		ls = append(ls, float64(t3.Sub(t2)))
	}
	return median(vs), median(cs), median(ls), nil
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}
