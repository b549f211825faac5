// Command rdxbench regenerates the RDX paper's evaluation tables and
// figures on the simulated substrate.
//
// Usage:
//
//	rdxbench [-quick] [experiment ...]
//
// Experiments: fig2a fig2b fig2c fig4a fig4b fig5 redis mesh all (default:
// all). -quick shrinks sizes and durations. Control-plane numbers (publish,
// rollout, failover) come from bench/run.sh, not from here.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rdx/internal/experiments"
	"rdx/internal/telemetry"
)

var registry = []struct {
	name string
	desc string
	run  func(experiments.Options) (*telemetry.Table, error)
}{
	{"fig2a", "agent injection latency vs program size", experiments.Fig2a},
	{"fig2b", "update inconsistency during rollouts", experiments.Fig2b},
	{"fig2c", "control/data-path contention on a KV app", experiments.Fig2c},
	{"fig4a", "agent vs RDX load completion time", experiments.Fig4a},
	{"fig4b", "injection time breakdown", experiments.Fig4b},
	{"fig5", "RNIC→CPU incoherence: vanilla vs cc_event", experiments.Fig5},
	{"redis", "KV throughput under extension churn (§6)", experiments.Redis},
	{"mesh", "microservice completion under Wasm churn (§6)", experiments.Mesh},
}

func main() {
	quick := flag.Bool("quick", false, "shrink sizes/durations (CI mode)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rdxbench [-quick] [experiment ...]\n\nexperiments:\n")
		for _, e := range registry {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.name, e.desc)
		}
		fmt.Fprintf(os.Stderr, "  %-8s %s\n", "all", "run everything (default)")
	}
	flag.Parse()

	if *list {
		for _, e := range registry {
			fmt.Printf("%-8s %s\n", e.name, e.desc)
		}
		return
	}

	names := flag.Args()
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		names = nil
		for _, e := range registry {
			names = append(names, e.name)
		}
	}

	opts := experiments.Options{Quick: *quick}
	exit := 0
	for _, name := range names {
		found := false
		for _, e := range registry {
			if e.name != name {
				continue
			}
			found = true
			fmt.Printf("== %s: %s ==\n", e.name, e.desc)
			start := time.Now()
			tbl, err := e.run(opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
				exit = 1
				break
			}
			fmt.Println(tbl.String())
			fmt.Printf("(%s in %s)\n\n", e.name, time.Since(start).Round(time.Millisecond))
		}
		if !found {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (see -list)\n", name)
			exit = 2
		}
	}
	os.Exit(exit)
}
