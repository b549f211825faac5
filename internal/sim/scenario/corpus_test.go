//go:build !simregression

package scenario

import (
	"path/filepath"
	"testing"

	"rdx/internal/sim"
)

// TestCorpusReplaysClean replays every checked-in schedule from
// internal/sim/testdata/schedules against the FIXED code. Each corpus
// file is a schedule that violated an invariant on the historical
// (simregression-tagged) code; the fix must make the same interleaving
// pass. Regenerate with:
//
//	SIM_WRITE_CORPUS=1 go test -tags simregression ./internal/sim/scenario
func TestCorpusReplaysClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "testdata", "schedules", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no corpus schedules found under internal/sim/testdata/schedules")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			sc, err := sim.LoadSchedule(path)
			if err != nil {
				t.Fatal(err)
			}
			run, ok := runners[sc.Scenario]
			if !ok {
				t.Fatalf("corpus schedule names unknown scenario %q", sc.Scenario)
			}
			res := run(sc.Config())
			if res.Violation != nil {
				t.Fatalf("fixed code still violates %q on corpus schedule (%s):\n%v",
					res.Violation.Invariant, sc.Note, res.Violation)
			}
		})
	}
}
