package telemetry

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram should report zeros: %s", h.Summary())
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{10, 20, 30, 40, 50} {
		h.Record(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 150 {
		t.Errorf("Sum = %d, want 150", got)
	}
	if got := h.Mean(); got != 30 {
		t.Errorf("Mean = %v, want 30", got)
	}
	if got := h.Min(); got != 10 {
		t.Errorf("Min = %d, want 10", got)
	}
	if got := h.Max(); got != 50 {
		t.Errorf("Max = %d, want 50", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative should clamp to 0: min=%d max=%d", h.Min(), h.Max())
	}
}

func TestHistogramPercentileExactSmall(t *testing.T) {
	// Values below subSize land in exact buckets, so percentiles are exact.
	h := NewHistogram()
	for i := int64(1); i <= 10; i++ {
		h.Record(i)
	}
	if got := h.Percentile(50); got != 5 {
		t.Errorf("p50 = %d, want 5", got)
	}
	if got := h.Percentile(100); got != 10 {
		t.Errorf("p100 = %d, want 10", got)
	}
	if got := h.Percentile(0); got != 1 {
		t.Errorf("p0 = %d, want 1", got)
	}
}

func TestHistogramPercentileRelativeError(t *testing.T) {
	// Percentiles of large values must be within the bucket relative error.
	h := NewHistogram()
	rng := rand.New(rand.NewSource(42))
	vals := make([]int64, 0, 10000)
	for i := 0; i < 10000; i++ {
		v := int64(rng.ExpFloat64() * 1e6)
		vals = append(vals, v)
		h.Record(v)
	}
	// Exact p50 via sort.
	sorted := append([]int64(nil), vals...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
		if i > 200 {
			break // partial selection sort is enough for the median region
		}
	}
	got := float64(h.Percentile(50))
	// 2^-subBits = 3.125% relative resolution; allow 2x margin.
	exact := exactPercentile(vals, 50)
	if math.Abs(got-exact)/exact > 0.0625 {
		t.Errorf("p50 = %v, exact = %v: error too large", got, exact)
	}
}

func exactPercentile(vals []int64, p float64) float64 {
	s := append([]int64(nil), vals...)
	// insertion-free: use stdlib-ish sort via simple quicksort
	quickSort(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(s[rank])
}

func quickSort(s []int64) {
	if len(s) < 2 {
		return
	}
	p := s[len(s)/2]
	l, r := 0, len(s)-1
	for l <= r {
		for s[l] < p {
			l++
		}
		for s[r] > p {
			r--
		}
		if l <= r {
			s[l], s[r] = s[r], s[l]
			l++
			r--
		}
	}
	quickSort(s[:r+1])
	quickSort(s[l:])
}

func TestHistogramPercentileClampedToRecordedRange(t *testing.T) {
	// Regression: a bucket midpoint can exceed the largest recorded value.
	// 1<<20 sits exactly on a bucket's lower edge, so its midpoint is
	// 1<<20 + 1<<(20-subBits-1) — an unclamped Percentile reported
	// p99 > Max, an impossible summary.
	h := NewHistogram()
	h.Record(1 << 20)
	for _, p := range []float64{50, 90, 99, 99.9} {
		if got, max := h.Percentile(p), h.Max(); got > max {
			t.Errorf("p%v = %d > max %d", p, got, max)
		}
	}

	// The symmetric undershoot: every recorded value sits on a bucket's
	// upper edge, so the midpoint lands below Min.
	lo := NewHistogram()
	edge := int64(1<<20) + (1 << (20 - subBits)) - 1 // top of the first sub-bucket
	lo.Record(edge)
	for _, p := range []float64{1, 50, 99} {
		if got, min := lo.Percentile(p), lo.Min(); got < min {
			t.Errorf("p%v = %d < min %d", p, got, min)
		}
	}

	// Mixed adversarial set: percentiles must stay inside [min, max].
	m := NewHistogram()
	for _, v := range []int64{1 << 10, 1 << 20, (1 << 30) + 1} {
		m.Record(v)
	}
	for p := 0.0; p <= 100; p += 0.5 {
		got := m.Percentile(p)
		if got < m.Min() || got > m.Max() {
			t.Fatalf("p%v = %d outside [%d, %d]", p, got, m.Min(), m.Max())
		}
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Mix magnitudes so the bucket math (the part the hot path pays
		// for) is exercised, not just the lock.
		h.Record(int64(i)<<7 + 3)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(100)
	b.Record(200)
	b.Record(300)
	a.Merge(b)
	if a.Count() != 3 {
		t.Errorf("merged count = %d, want 3", a.Count())
	}
	if a.Sum() != 600 {
		t.Errorf("merged sum = %d, want 600", a.Sum())
	}
	if a.Min() != 100 || a.Max() != 300 {
		t.Errorf("merged min/max = %d/%d, want 100/300", a.Min(), a.Max())
	}
}

func TestHistogramMergeEmptyOther(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(7)
	a.Merge(b)
	if a.Count() != 1 || a.Min() != 7 {
		t.Fatalf("merging empty changed stats: %s", a.Summary())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(123)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear histogram")
	}
	h.Record(5)
	if h.Min() != 5 {
		t.Fatalf("min after reset+record = %d, want 5", h.Min())
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(int64(rng.Intn(1 << 20)))
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Errorf("count = %d, want %d", h.Count(), goroutines*per)
	}
}

func TestBucketRoundTripProperty(t *testing.T) {
	// Property: the representative value of a value's bucket is within
	// the guaranteed relative error (or exact for small values).
	f := func(raw int64) bool {
		v := raw
		if v < 0 {
			v = -v
		}
		v %= int64(1) << 40
		rep := bucketValue(bucketIndex(v))
		if v < subSize {
			return rep == v
		}
		err := math.Abs(float64(rep-v)) / float64(v)
		return err <= 1.0/float64(subSize)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBucketIndexMonotoneProperty(t *testing.T) {
	// Property: bucketIndex is monotone non-decreasing.
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return bucketIndex(x) <= bucketIndex(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "size", "latency")
	tb.AddRow("1.3K", "12us")
	tb.AddRow("95K", "900ms")
	out := tb.String()
	for _, want := range []string{"Fig X", "size", "latency", "1.3K", "95K", "900ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")                    // short row padded
	tb.AddRow("x", "y", "z", "overflow") // long row truncated
	if len(tb.Rows[0]) != 3 || len(tb.Rows[1]) != 3 {
		t.Fatalf("rows not normalized: %v", tb.Rows)
	}
	if tb.Rows[1][2] != "z" {
		t.Errorf("cell = %q, want z", tb.Rows[1][2])
	}
}

func TestTableAddRowf(t *testing.T) {
	tb := NewTable("", "n", "dur", "f")
	tb.AddRowf(42, 1500*time.Microsecond, 3.14159)
	if tb.Rows[0][0] != "42" {
		t.Errorf("int cell = %q", tb.Rows[0][0])
	}
	if tb.Rows[0][1] != "1.50ms" {
		t.Errorf("duration cell = %q, want 1.50ms", tb.Rows[0][1])
	}
	if tb.Rows[0][2] != "3.14" {
		t.Errorf("float cell = %q, want 3.14", tb.Rows[0][2])
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{500 * time.Nanosecond, "0.5us"},
		{2 * time.Microsecond, "2.0us"},
		{1500 * time.Microsecond, "1.50ms"},
		{2 * time.Second, "2.000s"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestHistogramSummaryNonEmpty(t *testing.T) {
	h := NewHistogram()
	h.RecordDuration(3 * time.Microsecond)
	if s := h.Summary(); !strings.Contains(s, "n=1") {
		t.Errorf("summary = %q", s)
	}
}
