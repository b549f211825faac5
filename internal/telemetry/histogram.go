// Package telemetry provides the measurement plumbing used by every RDX
// experiment: low-overhead latency histograms with log-spaced buckets and a
// fixed-width table printer for paper-shaped output.
//
// The histogram design follows the HDR histogram idea: values are bucketed by
// (exponent, sub-bucket) so that relative error is bounded (~1/2^subBits)
// across nine orders of magnitude, while Record stays allocation-free and can
// be called from hot paths.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"time"
)

const (
	// subBits controls per-bucket resolution: 2^subBits sub-buckets per
	// power of two, giving a worst-case relative error of 2^-subBits.
	subBits = 5
	subSize = 1 << subBits
	// maxExp bounds the largest recordable value at 2^maxExp nanoseconds
	// (~36 minutes), far beyond any latency this repository measures.
	maxExp = 41
)

// Histogram records int64 values (conventionally nanoseconds) into
// log-spaced buckets. The zero value is NOT ready to use; call NewHistogram.
// All methods are safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	buckets [maxExp * subSize]uint64
	count   uint64
	sum     int64
	min     int64
	max     int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < subSize {
		return int(v) // exact buckets for tiny values
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	// Position of the subBits bits immediately below the leading bit.
	sub := int((uint64(v) >> (uint(exp) - subBits)) & (subSize - 1))
	idx := exp*subSize + sub
	if idx >= len([maxExp * subSize]uint64{}) {
		idx = maxExp*subSize - 1
	}
	return idx
}

// bucketValue returns a representative (midpoint) value for bucket i,
// the inverse of bucketIndex up to bucket resolution.
func bucketValue(i int) int64 {
	if i < subSize {
		return int64(i)
	}
	exp := i / subSize
	sub := i % subSize
	lo := (int64(1) << uint(exp)) | (int64(sub) << uint(exp-subBits))
	hi := lo + (int64(1) << uint(exp-subBits))
	return (lo + hi) / 2
}

// Record adds one observation. Negative values are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	h.buckets[bucketIndex(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// RecordDuration adds one duration observation in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all recorded values.
func (h *Histogram) Sum() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean, or 0 if empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest recorded value, or 0 if empty.
func (h *Histogram) Min() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, or 0 if empty.
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Percentile returns the value at quantile p in [0,100], approximated to
// bucket resolution. The result is clamped to [Min, Max]: a bucket midpoint
// can overshoot the largest recorded value (or undershoot the smallest), and
// an unclamped return printed summaries with p99 > max. Returns 0 for an
// empty histogram.
func (h *Histogram) Percentile(p float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			return h.clampLocked(bucketValue(i))
		}
	}
	return h.max
}

// clampLocked bounds a bucket-midpoint estimate by the recorded extremes.
func (h *Histogram) clampLocked(v int64) int64 {
	if v > h.max {
		return h.max
	}
	if v < h.min {
		return h.min
	}
	return v
}

// Median is shorthand for Percentile(50).
func (h *Histogram) Median() int64 { return h.Percentile(50) }

// Merge adds all observations from other into h.
func (h *Histogram) Merge(other *Histogram) {
	other.mu.Lock()
	snapshot := other.buckets
	count, sum, mn, mx := other.count, other.sum, other.min, other.max
	other.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range snapshot {
		h.buckets[i] += c
	}
	h.count += count
	h.sum += sum
	if count > 0 {
		if mn < h.min {
			h.min = mn
		}
		if mx > h.max {
			h.max = mx
		}
	}
}

// Reset clears all recorded observations.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets = [maxExp * subSize]uint64{}
	h.count = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// Summary returns a human-readable one-line summary in microseconds.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.1fus p50=%.1fus p99=%.1fus max=%.1fus",
		h.Count(),
		h.Mean()/1e3,
		float64(h.Percentile(50))/1e3,
		float64(h.Percentile(99))/1e3,
		float64(h.Max())/1e3)
}

// Table accumulates rows of experiment output and renders them with aligned
// columns, the format every rdxbench experiment prints.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond len(Headers) are dropped, missing cells
// render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddRowf appends a row built from fmt.Sprintf applied cell-wise:
// each argument is formatted with %v.
func (t *Table) AddRowf(cells ...interface{}) {
	s := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			s[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			s[i] = FormatDuration(v)
		default:
			s[i] = fmt.Sprintf("%v", c)
		}
	}
	t.AddRow(s...)
}

// String renders the table with a title line, separator, and aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// FormatDuration renders a duration with the unit the paper's figures use:
// microseconds below 1ms, milliseconds otherwise.
func FormatDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fus", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}
