//go:build simregression

package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"rdx/internal/sim"
)

// The simregression build tag re-seeds a historical bug in controlha:
// pre-rotation takeover fencing (epoch CAS only, no ring rkey rotation),
// which lets a stale leader with a live tail reservation commit past the
// successor's replay point.
//
// The test asserts the simulator FINDS it within a few thousand schedules
// and shrinks it to a short, replayable trace. Set
// SIM_WRITE_CORPUS=1 to refresh the checked-in corpus under
// internal/sim/testdata/schedules.
const regressionBudget = 3000

func writeCorpus(t *testing.T, name string, sc *sim.Schedule) {
	if os.Getenv("SIM_WRITE_CORPUS") != "1" {
		return
	}
	path := filepath.Join("..", "testdata", "schedules", name)
	if err := sim.SaveSchedule(path, sc); err != nil {
		t.Fatalf("writing corpus schedule: %v", err)
	}
	t.Logf("wrote %s", path)
}

// TestFencingRegression: the acked-durable invariant must catch the
// stale-reservation commit escaping the successor's replay.
func TestFencingRegression(t *testing.T) {
	rep := sim.ExploreRandom(RunFailover, 1, regressionBudget, 300)
	if rep.Violation == nil {
		t.Fatalf("fencing bug not found in %d schedules", rep.Runs)
	}
	v := rep.Violation
	t.Logf("found after %d runs, shrunk to %d steps:\n%v", rep.Runs, len(v.Trace), v)
	if v.Invariant != "acked-durable" && v.Invariant != "journal-replayable" {
		t.Fatalf("unexpected invariant %q", v.Invariant)
	}
	if len(v.Trace) > 20 {
		t.Fatalf("shrunk trace has %d steps, want <= 20", len(v.Trace))
	}
	writeCorpus(t, "fencing-stale-reservation.json", &sim.Schedule{
		Scenario: "failover",
		Seed:     v.Seed,
		Choices:  v.Choices,
		MaxSteps: 300,
		Note:     "pre-rotation takeover fencing: stale leader commits a live reservation past the successor's replay point (" + v.Invariant + ")",
	})
}
