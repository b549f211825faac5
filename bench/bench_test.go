package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload untraced and traced at smoke sizes and holds
// the program's output to BENCHMARK.json: each declared metric is emitted
// once, with its unit, and nothing else is.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics declared, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics declared, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is not made of letters, digits, '_', '.', '-'", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(sp.Workloads), len(workloadNames))
	}
	for i, wl := range sp.Workloads {
		if wl.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the program", i, wl.Name, workloadNames[i])
		}
		for _, traced := range []bool{false, true} {
			declared := sp.EndToEnd
			if traced {
				declared = sp.PerLayer
			}
			res, inf, err := runOne(config{workload: wl.Name, seed: 1, seconds: 0.2, trace: traced, smoke: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: self-checks failed: %v", wl.Name, traced, inf.Failures)
			}
			if res.Attempted < 1 || inf.Samples < 1 {
				t.Errorf("%s traced=%v: attempted %d ops, %d samples", wl.Name, traced, res.Attempted, inf.Samples)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", wl.Name, traced, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", wl.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s in %q, declared %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			// Smoke numbers must be unmistakable in their serialised form.
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back map[string]any
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatal(err)
			}
			if back["smoke"] != true {
				t.Errorf("%s traced=%v: result line is not stamped smoke: %s", wl.Name, traced, line)
			}
		}
	}
}

// TestInputsFollowTheSeed: the seed is the only input knob, so the same seed
// must reproduce the job stream and another seed must not.
func TestInputsFollowTheSeed(t *testing.T) {
	for _, wl := range workloadNames {
		clients := clientsOf(wl, 2)
		p, err := planFor(wl, smokeSizes)
		if err != nil {
			t.Fatal(err)
		}
		hash := func(seed int64) string {
			h, err := inputsSHA256(wl, seed, smokeSizes, p, clients, 2000)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		if a, b := hash(7), hash(7); a != b {
			t.Errorf("%s: seed 7 gave %s, then %s", wl, a, b)
		}
		if a, b := hash(7), hash(8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs %s", wl, a)
		}
	}
}

// TestTraceFile: the spans written at exit form a tree per op.
func TestTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	res, inf, err := runOne(config{workload: "flip", seed: 1, seconds: 0.2, trace: true, smoke: true, traceOut: path})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("self-checks failed: %v", inf.Failures)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type line struct {
		ID      int    `json:"id"`
		Name    string `json:"name"`
		OpID    int    `json:"op_id"`
		Parent  int    `json:"parent"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	var spans []line
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("line %d: %v", len(spans), err)
		}
		spans = append(spans, l)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	// A fence check carries no identity and is matched to its op by timing
	// (see attribute); two ops of one shard reaching their check within the
	// same microsecond can swap theirs. Anything beyond a stray swap is a bug.
	children := map[int]int{}
	ops, odd := 0, 0
	for i, s := range spans {
		if s.ID != i || s.EndNS < s.StartNS {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		switch {
		case s.Name == "op":
			ops++
			if s.Parent != -1 {
				t.Errorf("root span %d has parent %d", i, s.Parent)
			}
		case s.Parent < 0:
			t.Errorf("span %d (%s, op %d) has no parent", i, s.Name, s.OpID)
		default:
			if p := spans[s.Parent]; p.StartNS > s.StartNS || p.EndNS < s.EndNS {
				t.Logf("span %d (%s) is not inside its parent %d (%s)", i, s.Name, s.Parent, p.Name)
				odd++
			}
			children[s.Parent]++
		}
	}
	for i, s := range spans {
		// A flip is one executor span holding five node verbs, a fence
		// check and a journal append.
		if s.Name == "shard.execute" && children[i] != 7 {
			t.Logf("executor span %d of op %d has %d children, want 7", i, s.OpID, children[i])
			odd++
		}
	}
	if odd > ops/100 {
		t.Errorf("%d malformed subtrees in %d ops", odd, ops)
	}
}

func TestQuantileIsAnOrderStatistic(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 100}, {0.1, 10}, {0.11, 20}} {
		if got := quantile(v, c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestCoveredIsTheUnionOfChildren(t *testing.T) {
	spans := []span{{start: 10, dur: 10}, {start: 15, dur: 10}, {start: 40, dur: 100}, {start: 0, dur: 5}}
	// [10,20) ∪ [15,25) ∪ [40,140) ∪ [0,5) clipped to [8,50) is [10,25) ∪ [40,50).
	if got := covered(spans, []int32{0, 1, 2, 3}, 8, 50); got != 25 {
		t.Errorf("covered = %d, want 25", got)
	}
}
