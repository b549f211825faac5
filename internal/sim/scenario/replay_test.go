package scenario

import (
	"reflect"
	"testing"

	"rdx/internal/sim"
)

// runners maps corpus scenario names to their Runner.
var runners = map[string]sim.Runner{
	"failover": RunFailover,
	"chain":    RunChainOffload,
}

// TestReplayByteIdentical pins run-to-run determinism: a seeded schedule,
// replayed from its recorded choices, must fire the same steps in the same
// order — the whole Result (choices, enabled counts, trace, any violation)
// compares equal. Without it a corpus schedule or a reported (seed,
// choices) pair names a different interleaving on every run. Untagged on
// purpose: it holds with and without the simregression bugs re-seeded.
func TestReplayByteIdentical(t *testing.T) {
	for name, run := range runners {
		for seed := int64(1); seed <= 50; seed++ {
			first := run(sim.Config{Seed: seed, MaxSteps: 300})
			again := run(sim.Config{Seed: seed, Replay: first.Choices, MaxSteps: 300})
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("%s seed %d: replay diverged\nfirst: choices %v\n  %q\nagain: choices %v\n  %q",
					name, seed, first.Choices, first.Trace, again.Choices, again.Trace)
			}
		}
	}
}
