// Command bench is the publish benchmark: it builds an in-process fleet and
// drives tenant publishes through the real stack — shard.Router, the shard's
// executor, core.CodeFlow or the pipeline scheduler, the controlha journal
// and lease, rdma QPs, the nodes — under four workloads, and reports five
// end-to-end metrics per workload or, on a traced run, the per-layer
// breakdown. See README.md.
//
// One run, as the driver makes it (from the repository root):
//
//	bash bench/run.sh --workload flip --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	traceOut string
}

// window is how long the run measures.
func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints. Smoke marks numbers from shrunken
// sizes, which must never be compared with a real run's.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Smoke     bool                   `json:"smoke,omitempty"`
}

// info describes the run that produced a result.
type info struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Seconds      float64  `json:"seconds"`
	Trace        bool     `json:"trace"`
	Clients      int      `json:"clients"`
	Samples      int      `json:"samples"`
	InputsSHA256 string   `json:"inputs_sha256"`
	Notes        []string `json:"notes,omitempty"`
	Failures     []string `json:"failures,omitempty"`
}

const inputPairs = 10000

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "all", "flip, cold, rollout, failover, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the only input knob")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&cfg.smoke, "smoke", false, "shrunken sizes; output is stamped and not comparable")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write the spans to this file as JSON lines")
	agree := flag.Bool("agree", false, "run two full sets back to back and fail if an end-to-end metric differs by more than its bound")
	out := flag.String("out", "", "with -agree, write both sets' raw output to this file")
	flag.Parse()
	cfg.trace = trace != 0

	if *agree || cfg.workload == "all" {
		if err := orchestrate(cfg, *agree, *out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if cfg.seconds <= 0 {
		spec, err := loadSpec()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		cfg.seconds = float64(spec.RunSeconds)
	}
	res, inf, err := runOne(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	report(os.Stdout, res, inf)
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints a run for people, then for the orchestrator, then the
// result line the driver reads.
func report(w io.Writer, res *result, inf *info) {
	fmt.Fprintf(w, "workload %s  seed %d  %.1fs  trace %v  clients %d  samples %d\n",
		inf.Workload, inf.Seed, inf.Seconds, inf.Trace, inf.Clients, inf.Samples)
	fmt.Fprintf(w, "inputs_sha256 %s\n", inf.InputsSHA256)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	bounds := map[string]float64{}
	if sp, err := loadSpec(); err == nil {
		for _, m := range sp.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-40s %16.4f %-5s", name, m.Value, m.Unit)
		if b, ok := bounds[name]; ok && !inf.Trace {
			fmt.Fprintf(w, "  may worsen by %.0f%%", 100*b)
		}
		fmt.Fprintln(w)
	}
	for _, n := range inf.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, f := range inf.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	mustJSON(w, "info ", inf)
	mustJSON(w, "", res)
}

func mustJSON(w io.Writer, prefix string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of numbers and strings
	}
	fmt.Fprintf(w, "%s%s\n", prefix, b)
}

// runOne sets a workload up, measures it, checks its outputs and returns
// the metrics of the requested kind.
func runOne(cfg config) (*result, *info, error) {
	sz := fullSizes
	if cfg.smoke {
		sz = smokeSizes
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, 4))
	clients := clientsOf(cfg.workload, nproc)
	p, err := planFor(cfg.workload, sz)
	if err != nil {
		return nil, nil, err
	}
	sha, err := inputsSHA256(cfg.workload, cfg.seed, sz, p, clients, inputPairs)
	if err != nil {
		return nil, nil, err
	}
	inf := &info{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Clients: clients, InputsSHA256: sha}
	setUpRig := func(tr *tracer) (*run, error) { return setUp(cfg.workload, cfg.seed, sz, p, clients, tr) }

	defs, measured := endToEnd, runUntraced
	if cfg.trace {
		defs, measured = perLayer, runTraced
	}
	w, values, failures, err := measured(cfg, inf, setUpRig)
	if err != nil {
		return nil, nil, err
	}
	failures = append(failures, w.errs...)
	for _, f := range failures {
		inf.Failures = append(inf.Failures, f.Error())
	}
	inf.Samples = w.acked()
	// An op that was acked but is not on the standby is a failed op too.
	res := &result{Metrics: map[string]metricValue{}, Smoke: cfg.smoke, Attempted: w.attempted,
		Failed: w.failed + int(w.delta("controlha.journal.replication_errors"))}
	res.Correct = len(failures) == 0 && res.Failed == 0
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(res.Metrics) != len(values) {
		return nil, nil, errors.New("a metric was computed that is not declared")
	}
	return res, inf, nil
}

// runUntraced measures the end-to-end metrics: no decorator is in place.
func runUntraced(cfg config, _ *info, setUpRig func(*tracer) (*run, error)) (*window, map[string]float64, []error, error) {
	// Set-up is timed several times and reported as the median; the last
	// rig built is the one measured.
	var rn *run
	var setups []float64
	for reps := 5; len(setups) < reps; {
		if rn != nil {
			rn.close()
		}
		var err error
		if rn, err = setUpRig(nil); err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, rn.setupTime.Seconds())
		if setups[0] > 1 {
			reps = 3
		}
	}
	defer rn.close()
	w := rn.measure(cfg.window(), false)
	failures := append(rn.verify(), rn.identity(w, nil, nil)...)
	return w, map[string]float64{
		"setup_s":               median(setups),
		"op_p50_us":             quantile(w.lat, 0.50) / 1e3,
		"op_p99_us":             quantile(w.lat, 0.99) / 1e3,
		"ops_per_s":             rn.opsPerSec(w),
		"retained_bytes_per_op": rn.retainedPerOp(w),
	}, failures, nil
}

// runTraced measures the per-layer metrics: a quarter of the time with the
// decorators passing through, the rest with them recording spans; the ratio
// of the two rates is the tracing overhead.
func runTraced(cfg config, inf *info, setUpRig func(*tracer) (*run, error)) (*window, map[string]float64, []error, error) {
	dur := cfg.window()
	refDur := dur / 4
	const spanRate = 450000 // spans per traced second, with room: rollout records ~350k
	tr := newTracer(inf.Clients, int((dur-refDur).Seconds()*spanRate)+1<<16, int(dur.Seconds()*30000)+1<<12)
	rn, err := setUpRig(tr)
	if err != nil {
		return nil, nil, nil, err
	}
	defer rn.close()
	ref := rn.measure(refDur, false)
	rn.resetHistograms()
	journaled := rn.journalBytes()
	stop := make(chan struct{})
	pr, probing := rn.startProbe(cfg.seed, stop)
	w := rn.measure(dur-refDur, true)
	close(stop)
	probing.Wait()
	failures := rn.verify()
	journaled = rn.journalBytes() - journaled
	st := analyse(tr)
	cal, err := rn.calibrate(cfg.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	values := rn.layers(ref, w, st, pr, cal, journaled)
	failures = append(failures, rn.identity(w, st, values)...)
	if !cfg.smoke {
		failures = append(failures, rn.closure(w, st, values, inf)...)
	}
	failures = append(failures, ref.errs...)
	w.attempted += ref.attempted
	w.failed += ref.failed
	if d := tr.dropped(); d > 0 {
		inf.Notes = append(inf.Notes, fmt.Sprintf("%d spans did not fit the trace buffer; per-op closures cover the ops before it filled", d))
	}
	if cfg.traceOut != "" {
		if err := tr.writeTrace(cfg.traceOut); err != nil {
			return nil, nil, nil, fmt.Errorf("trace file: %w", err)
		}
	}
	return w, values, failures, nil
}
