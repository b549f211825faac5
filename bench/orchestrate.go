package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// spec is the part of BENCHMARK.json this program reads: run length and
// each end-to-end metric's regression bound.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec finds BENCHMARK.json from the repository root or from bench/.
func loadSpec() (*spec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// outcome is one child run as the orchestrator keeps it.
type outcome struct {
	Info   info   `json:"info"`
	Result result `json:"result"`
}

// set is every workload measured once untraced and once traced.
type set map[string]map[string]outcome // workload -> "end_to_end" | "per_layer"

// orchestrate runs full sets, each run in a process of its own exactly as
// the driver starts it, and prints them side by side with their bounds.
func orchestrate(cfg config, agree bool, outPath string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(sp.RunSeconds)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	workloads := workloadNames
	if cfg.workload != "all" {
		workloads = []string{cfg.workload}
	}
	sets := []set{{}}
	if agree {
		sets = append(sets, set{})
	}
	for i, s := range sets {
		for _, wl := range workloads {
			s[wl] = map[string]outcome{}
			for _, kind := range []string{"end_to_end", "per_layer"} {
				fmt.Printf("== set %d  %s  %s\n", i+1, wl, kind)
				o, err := child(self, cfg, wl, kind == "per_layer")
				if err != nil {
					return fmt.Errorf("set %d %s %s: %w", i+1, wl, kind, err)
				}
				s[wl][kind] = *o
			}
		}
	}
	if outPath != "" {
		doc := map[string]any{"environment": environment(), "sets": sets}
		b, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !agree {
		return nil
	}
	return compare(sp, sets[0], sets[1], workloads)
}

// child runs one workload in a fresh process and parses its last two lines.
func child(self string, cfg config, workload string, traced bool) (*outcome, error) {
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	var lines []string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	for _, l := range lines[:max(len(lines)-2, 0)] {
		fmt.Println(l)
	}
	if runErr != nil {
		return nil, runErr
	}
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "info ") {
		return nil, fmt.Errorf("run printed no result")
	}
	var o outcome
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "info ")), &o.Info); err != nil {
		return nil, err
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o.Result); err != nil {
		return nil, err
	}
	return &o, nil
}

// exactOnFlip are the counts that must repeat exactly from set to set.
var exactOnFlip = []string{"rdma.modeled_us_per_op", "rdma.node_verbs_per_op",
	"controlha.standby_verbs_per_op", "controlha.entries_per_op"}

// compare fails if the two sets disagree: an end-to-end metric further
// apart than its bound, or a deterministic count that did not repeat.
func compare(sp *spec, a, b set, workloads []string) error {
	bad := 0
	fmt.Printf("\n%-10s %-24s %14s %14s %8s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, wl := range workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a[wl]["end_to_end"].Result.Metrics[m.Name].Value, b[wl]["end_to_end"].Result.Metrics[m.Name].Value
			diff := math.Abs(vb-va) / va
			flag := ""
			if !(diff <= m.Bound) {
				flag = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-10s %-24s %14.3f %14.3f %7.1f%% %6.0f%%%s\n", wl, m.Name, va, vb, 100*diff, 100*m.Bound, flag)
		}
	}
	if _, ok := a["flip"]; ok {
		for _, name := range exactOnFlip {
			va, vb := a["flip"]["per_layer"].Result.Metrics[name].Value, b["flip"]["per_layer"].Result.Metrics[name].Value
			flag := ""
			if math.Abs(va-vb) > 1e-9*math.Abs(va) {
				flag = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-10s %-34s %14.6f %14.6f  exact%s\n", "flip", name, va, vb, flag)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics disagree between two sets of the same commit", bad)
	}
	fmt.Println("the two sets agree")
	return nil
}

// environment records where a reference result was measured.
func environment() map[string]any {
	env := map[string]any{
		"date":       time.Now().UTC().Format(time.RFC3339),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": min(runtime.NumCPU(), 4),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["git_rev"] = strings.TrimSpace(string(rev))
		// Uncommitted changes: the revision is the measured tree's parent.
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			env["git_dirty"] = len(st) > 0
		}
	}
	return env
}
