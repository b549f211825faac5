//go:build !simregression

package scenario

import (
	"testing"
	"time"

	"rdx/internal/sim"
)

// Soak budgets: the random soaks together must clear the 10k-schedule bar
// well inside a minute (empirically they run in single-digit seconds).
const (
	soakFailoverRuns = 6000
	soakChainRuns    = 4000
	soakMaxSteps     = 300
)

// TestFailoverSoak random-explores the leader-failover scenario: every
// schedule interleaves A's appends, the fence probe, and B's takeover
// with partition/duplication/expiry/kill faults, and every invariant must
// hold at every quiescent point of every run.
func TestFailoverSoak(t *testing.T) {
	start := time.Now()
	rep := sim.ExploreRandom(RunFailover, 1, soakFailoverRuns, soakMaxSteps)
	if rep.Violation != nil {
		t.Fatalf("failover soak found a violation:\n%v", rep.Violation)
	}
	elapsed := time.Since(start)
	t.Logf("failover: %d schedules in %v (%.0f/s)", rep.Runs, elapsed,
		float64(rep.Runs)/elapsed.Seconds())
}

// TestFailoverSystematic walks the low-deviation schedule space
// exhaustively-ish: every run within the preemption budget from the
// deterministic baseline. Systematic exploration catches bugs that need a
// specific rare interleaving rather than volume.
func TestFailoverSystematic(t *testing.T) {
	rep := sim.ExploreSystematic(RunFailover, 2, soakMaxSteps, 800)
	if rep.Violation != nil {
		t.Fatalf("failover systematic found a violation:\n%v", rep.Violation)
	}
	t.Logf("failover systematic: %d schedules within deviation budget 2", rep.Runs)
}

// TestChainOffloadSoak random-explores the verb-chain offload scenario:
// chained renewals interleaved with publishes, takeover, chain-MR rotation,
// expiry, and partitions. Every trigger is one schedule step; the guard must
// keep every post-fence renewal from succeeding in every interleaving.
func TestChainOffloadSoak(t *testing.T) {
	start := time.Now()
	rep := sim.ExploreRandom(RunChainOffload, 1, soakChainRuns, soakMaxSteps)
	if rep.Violation != nil {
		t.Fatalf("chain soak found a violation:\n%v", rep.Violation)
	}
	elapsed := time.Since(start)
	t.Logf("chain: %d schedules in %v (%.0f/s)", rep.Runs, elapsed,
		float64(rep.Runs)/elapsed.Seconds())
}

// TestChainOffloadSystematic walks the low-deviation schedule space of the
// chain scenario.
func TestChainOffloadSystematic(t *testing.T) {
	rep := sim.ExploreSystematic(RunChainOffload, 2, soakMaxSteps, 800)
	if rep.Violation != nil {
		t.Fatalf("chain systematic found a violation:\n%v", rep.Violation)
	}
	t.Logf("chain systematic: %d schedules within deviation budget 2", rep.Runs)
}
