package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Registry is a named collection of counters, histograms, and gauges — the
// fleet observability surface. Components reach their instruments by name
// (get-or-create), so independent layers (wire, scheduler, endpoint) share
// one export point, and a re-created component (a redialed QP, a restarted
// endpoint connection) picks up the SAME instruments instead of resetting
// them: counts accumulate across reconnects by construction.
//
// Names are dotted paths by convention ("rdma.qp.verbs.write",
// "pipeline.jobs"); the registry itself treats them as opaque. All methods
// are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
	gauges     map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
		gauges:     make(map[string]*Gauge),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = NewCounter()
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = NewGauge()
		r.gauges[name] = g
	}
	return g
}

// HistogramSummary is the exported shape of one histogram: counts plus the
// percentile ladder, in nanoseconds (the recording convention).
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_ns"`
	Min   int64   `json:"min_ns"`
	P50   int64   `json:"p50_ns"`
	P90   int64   `json:"p90_ns"`
	P99   int64   `json:"p99_ns"`
	Max   int64   `json:"max_ns"`
}

// RegistrySnapshot is a point-in-time reading of every instrument, shaped
// for JSON export (the /metrics payload).
type RegistrySnapshot struct {
	At         time.Time                   `json:"at"`
	Counters   map[string]uint64           `json:"counters"`
	Histograms map[string]HistogramSummary `json:"histograms"`
	Gauges     map[string]int64            `json:"gauges,omitempty"`
}

// Snapshot reads every registered instrument. Counters are read atomically
// per instrument; the snapshot as a whole is not a consistent cut (as with
// any live metrics scrape).
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	r.mu.Unlock()

	snap := RegistrySnapshot{
		At:         time.Now(),
		Counters:   make(map[string]uint64, len(counters)),
		Histograms: make(map[string]HistogramSummary, len(hists)),
		Gauges:     make(map[string]int64, len(gauges)),
	}
	for name, c := range counters {
		snap.Counters[name] = c.Value()
	}
	for name, h := range hists {
		snap.Histograms[name] = HistogramSummary{
			Count: h.Count(),
			Mean:  h.Mean(),
			Min:   h.Min(),
			P50:   h.Percentile(50),
			P90:   h.Percentile(90),
			P99:   h.Percentile(99),
			Max:   h.Max(),
		}
	}
	for name, g := range gauges {
		snap.Gauges[name] = g.Value()
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON — the /metrics body.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Table renders the snapshot's counters and histogram percentiles as two
// fixed-width tables, the repo's standard CLI output shape.
func (s RegistrySnapshot) Table(title string) *Table {
	t := NewTable(title, "metric", "count", "mean", "p50", "p99", "max")
	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		t.AddRowf(name, h.Count,
			time.Duration(h.Mean), time.Duration(h.P50),
			time.Duration(h.P99), time.Duration(h.Max))
	}
	cnames := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		cnames = append(cnames, name)
	}
	sort.Strings(cnames)
	for _, name := range cnames {
		t.AddRowf(name, s.Counters[name], "", "", "", "")
	}
	gnames := make([]string, 0, len(s.Gauges))
	for name := range s.Gauges {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		t.AddRowf(name, s.Gauges[name], "", "", "", "")
	}
	return t
}
