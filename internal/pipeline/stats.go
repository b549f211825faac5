package pipeline

import (
	"fmt"
	"strings"
	"time"

	"rdx/internal/telemetry"
)

// metrics is the scheduler's live instrumentation: counters for volume and
// one histogram per pipeline stage. Instruments are drawn by name from a
// telemetry.Registry ("pipeline.*"), so a process-wide registry exports the
// scheduler's activity alongside the wire layer's with no extra wiring.
type metrics struct {
	jobs          *telemetry.Counter
	jobsFailed    *telemetry.Counter
	rejected      *telemetry.Counter // jobs that never made it past admission
	nodesInjected *telemetry.Counter
	nodesFailed   *telemetry.Counter
	retries       *telemetry.Counter

	spanQueue   *telemetry.Histogram
	spanLink    *telemetry.Histogram
	spanWrite   *telemetry.Histogram
	spanStage   *telemetry.Histogram // whole stage fan-out, slowest node
	spanPublish *telemetry.Histogram
	spanTotal   *telemetry.Histogram
}

func newMetrics(reg *telemetry.Registry) metrics {
	return metrics{
		jobs:          reg.Counter("pipeline.jobs"),
		jobsFailed:    reg.Counter("pipeline.jobs_failed"),
		rejected:      reg.Counter("pipeline.rejected"),
		nodesInjected: reg.Counter("pipeline.nodes_injected"),
		nodesFailed:   reg.Counter("pipeline.nodes_failed"),
		retries:       reg.Counter("pipeline.retries"),
		spanQueue:     reg.Histogram("pipeline.span.queue"),
		spanLink:      reg.Histogram("pipeline.span.link"),
		spanWrite:     reg.Histogram("pipeline.span.write"),
		spanStage:     reg.Histogram("pipeline.span.stage_fanout"),
		spanPublish:   reg.Histogram("pipeline.span.publish"),
		spanTotal:     reg.Histogram("pipeline.span.total"),
	}
}

// StageStats summarizes one pipeline stage's latency distribution.
type StageStats struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

func stageStats(h *telemetry.Histogram) StageStats {
	return StageStats{
		Count: h.Count(),
		Mean:  time.Duration(h.Mean()),
		P50:   time.Duration(h.Percentile(50)),
		P99:   time.Duration(h.Percentile(99)),
		Max:   time.Duration(h.Max()),
	}
}

// Stats is a point-in-time snapshot of scheduler activity.
type Stats struct {
	Jobs          uint64
	JobsFailed    uint64
	Rejected      uint64
	NodesInjected uint64
	NodesFailed   uint64
	Retries       uint64

	Queue   StageStats
	Link    StageStats
	Write   StageStats
	Stage   StageStats
	Publish StageStats
	Total   StageStats
}

func (m *metrics) snapshot() Stats {
	return Stats{
		Jobs:          m.jobs.Value(),
		JobsFailed:    m.jobsFailed.Value(),
		Rejected:      m.rejected.Value(),
		NodesInjected: m.nodesInjected.Value(),
		NodesFailed:   m.nodesFailed.Value(),
		Retries:       m.retries.Value(),
		Queue:         stageStats(m.spanQueue),
		Link:          stageStats(m.spanLink),
		Write:         stageStats(m.spanWrite),
		Stage:         stageStats(m.spanStage),
		Publish:       stageStats(m.spanPublish),
		Total:         stageStats(m.spanTotal),
	}
}

// Table renders the snapshot as a per-stage latency table plus a counter
// summary line, in the repo's standard experiment format.
func (s Stats) Table() *telemetry.Table {
	t := telemetry.NewTable(
		fmt.Sprintf("injection pipeline: jobs=%d (failed=%d rejected=%d) nodes=%d (failed=%d) retries=%d",
			s.Jobs, s.JobsFailed, s.Rejected, s.NodesInjected, s.NodesFailed, s.Retries),
		"stage", "count", "mean", "p50", "p99", "max")
	for _, row := range []struct {
		name string
		st   StageStats
	}{
		{"queue", s.Queue},
		{"link", s.Link},
		{"write", s.Write},
		{"stage-fanout", s.Stage},
		{"publish", s.Publish},
		{"total", s.Total},
	} {
		t.AddRowf(row.name, row.st.Count, row.st.Mean, row.st.P50, row.st.P99, row.st.Max)
	}
	return t
}

// String renders Table() — convenient for CLI output.
func (s Stats) String() string { return strings.TrimRight(s.Table().String(), "\n") }
