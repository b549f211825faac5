package mem

import (
	"testing"
	"time"
)

func TestCacheCoherentModeAlwaysFresh(t *testing.T) {
	a := NewArena(1024)
	c := NewCache(a, 0, 1) // zero mean: always re-read DRAM
	a.WriteQword(64, 1)
	if v, _ := c.ReadQword(64); v != 1 {
		t.Fatalf("v = %d", v)
	}
	a.WriteQword(64, 2) // DMA write
	if v, _ := c.ReadQword(64); v != 2 {
		t.Errorf("coherent-mode read = %d, want 2", v)
	}
}

func TestCacheServesStaleUntilInvalidate(t *testing.T) {
	a := NewArena(1024)
	c := NewCache(a, time.Hour, 1) // effectively never evicted
	a.WriteQword(64, 10)
	if v, _ := c.ReadQword(64); v != 10 {
		t.Fatal("initial fill")
	}
	a.WriteQword(64, 20) // DMA write lands in DRAM only
	if v, _ := c.ReadQword(64); v != 20 {
		// Expected: still stale.
	} else {
		t.Fatal("read observed DMA write without eviction or invalidate")
	}
	c.Invalidate(64) // the rdx_cc_event path
	if v, _ := c.ReadQword(64); v != 20 {
		t.Errorf("post-invalidate read = %d, want 20", v)
	}
}

func TestCacheNaturalEviction(t *testing.T) {
	a := NewArena(1024)
	c := NewCache(a, 2*time.Millisecond, 7)
	a.WriteQword(0, 1)
	c.ReadQword(0)
	a.WriteQword(0, 2)
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if v, _ := c.ReadQword(0); v == 2 {
			return // line expired and refilled — the vanilla-RDMA path
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Error("line never naturally evicted within 500ms (mean lifetime 2ms)")
}

func TestCacheOwnStoresVisible(t *testing.T) {
	a := NewArena(1024)
	c := NewCache(a, time.Hour, 1)
	c.ReadQword(128) // cache the line
	if err := c.WriteQword(128, 42); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.ReadQword(128); v != 42 {
		t.Errorf("own store invisible: %d", v)
	}
	if v, _ := a.ReadQword(128); v != 42 {
		t.Errorf("write-through missing: DRAM = %d", v)
	}
}

func TestCacheInvalidateRange(t *testing.T) {
	a := NewArena(4096)
	c := NewCache(a, time.Hour, 1)
	for addr := Addr(0); addr < 512; addr += 64 {
		c.ReadQword(addr)
	}
	if n := c.CachedLines(); n != 8 {
		t.Fatalf("cached lines = %d, want 8", n)
	}
	// [64, 264) overlaps the lines based at 64, 128, 192, and 256.
	c.InvalidateRange(64, 200)
	if n := c.CachedLines(); n != 4 {
		t.Errorf("cached lines after range invalidate = %d, want 4", n)
	}
	c.InvalidateRange(0, 0) // no-op
	if n := c.CachedLines(); n != 4 {
		t.Errorf("zero-length invalidate changed state: %d", n)
	}
	c.FlushAll()
	if c.CachedLines() != 0 {
		t.Error("FlushAll left lines")
	}
}

func TestCacheUnaligned(t *testing.T) {
	a := NewArena(1024)
	c := NewCache(a, 0, 1)
	if _, err := c.ReadQword(3); err == nil {
		t.Error("expected unaligned read error")
	}
	if err := c.WriteQword(3, 1); err == nil {
		t.Error("expected unaligned write error")
	}
}

func TestMeanEvictionIntervalCalibration(t *testing.T) {
	// Median incoherence at CPKI=10 must be ≈746us (Fig 5 calibration).
	mean := MeanEvictionInterval(10)
	median := time.Duration(float64(mean) * 0.6931471805599453)
	if median < 700*time.Microsecond || median > 800*time.Microsecond {
		t.Errorf("median at CPKI=10 = %v, want ≈746us", median)
	}
	// Must decay with CPKI.
	if MeanEvictionInterval(40) >= MeanEvictionInterval(10) {
		t.Error("eviction interval must shrink as CPKI grows")
	}
	if MeanEvictionInterval(0) < time.Minute {
		t.Error("CPKI=0 should effectively disable eviction")
	}
}

func TestCacheIncoherenceWindowStatistics(t *testing.T) {
	// End-to-end sanity of the Fig 5 mechanism: measure the time between a
	// DMA write and a polling CPU observing it, with CPKI=40 (fast
	// eviction, keeps the test quick). The median should be within 4x of
	// the calibrated value — it is a random exponential after all. The
	// cache reads a test clock that each poll advances by pollStep, so the
	// window measured is the model's, not the scheduler's.
	if testing.Short() {
		t.Skip("statistical test")
	}
	a := NewArena(1024)
	c := NewCacheForCPKI(a, 40, 99)
	clock := time.Unix(0, 0)
	c.now = func() time.Time { return clock }
	want := time.Duration(float64(MeanEvictionInterval(40)) * 0.693)

	const pollStep = time.Microsecond
	var total time.Duration
	const rounds = 30
	for i := 0; i < rounds; i++ {
		seq := uint64(i + 1)
		c.ReadQword(0)       // ensure line cached with residual life
		a.WriteQword(0, seq) // DMA write
		start := clock
		for {
			clock = clock.Add(pollStep)
			if v, _ := c.ReadQword(0); v == seq {
				break
			}
		}
		total += clock.Sub(start)
	}
	avg := total / rounds
	if avg < want/4 || avg > want*4 {
		t.Errorf("mean incoherence = %v, want within 4x of %v", avg, want)
	}
}
