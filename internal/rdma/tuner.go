package rdma

import (
	"math"
	"sync/atomic"

	"rdx/internal/telemetry"
)

// The writev threshold — the payload size above which a WRITE's data goes
// out as the second element of a net.Buffers writev instead of being
// memcpy'd into the assembled frame — used to be the fixed writevMin. The
// right crossover point is where the copy cost overtakes the cost of a
// second vector element, and that depends on the transport: a real socket
// pays a syscall per write, while on the in-process fabric link (no writev:
// Buffers degrades to two sequential Writes into the link's ring) a second
// Write costs a mutex, so there the threshold settles at its floor.
// wireTuner adapts it from an EWMA of observed per-write cost: small writes
// estimate the fixed per-write overhead, large writes estimate the per-byte
// (copy+transfer) cost, and the threshold settles where one extra
// write-overhead equals the bytes' copy cost. Process-wide, like the frame
// pools: every QP's writes feed one estimate of the same host's syscall
// economics.
type wireTuner struct {
	overheadNs atomic.Uint64 // float64 bits: EWMA fixed cost of one write
	perByteNs  atomic.Uint64 // float64 bits: EWMA cost per payload byte
	threshold  atomic.Int64  // current writev threshold, bytes
}

const (
	// tunerDefault is the threshold before any samples arrive (the old
	// fixed writevMin).
	tunerDefault = 256 << 10
	// tunerMin/tunerMax clamp the adapted threshold: below 64 KiB the
	// second vector element never pays for itself, above 1 MiB the copy
	// dominates any conceivable syscall overhead.
	tunerMin = 64 << 10
	tunerMax = 1 << 20
	// tunerSmallMax bounds the writes used to estimate fixed overhead.
	tunerSmallMax = 4 << 10
	// tunerLargeMin bounds the writes used to estimate per-byte cost.
	tunerLargeMin = 64 << 10
	// tunerAlpha is the EWMA smoothing factor.
	tunerAlpha = 0.2
)

var tuner = newWireTuner()

func newWireTuner() *wireTuner {
	t := &wireTuner{}
	t.threshold.Store(tunerDefault)
	return t
}

func ewma(cell *atomic.Uint64, sample float64) float64 {
	for {
		oldBits := cell.Load()
		old := math.Float64frombits(oldBits)
		next := sample
		if oldBits != 0 {
			next = old + tunerAlpha*(sample-old)
		}
		if cell.CompareAndSwap(oldBits, math.Float64bits(next)) {
			return next
		}
	}
}

// observe feeds one completed write of n payload bytes that took durNs.
func (t *wireTuner) observe(n int, durNs int64) {
	if durNs <= 0 {
		return
	}
	switch {
	case n <= tunerSmallMax:
		ewma(&t.overheadNs, float64(durNs))
	case n >= tunerLargeMin:
		over := math.Float64frombits(t.overheadNs.Load())
		per := (float64(durNs) - over) / float64(n)
		if per <= 0 {
			return
		}
		perAvg := ewma(&t.perByteNs, per)
		overAvg := math.Float64frombits(t.overheadNs.Load())
		if overAvg <= 0 || perAvg <= 0 {
			return
		}
		// Crossover: payload sizes whose copy cost exceeds one extra
		// write's fixed overhead should writev instead of copy.
		th := int64(overAvg / perAvg)
		if th < tunerMin {
			th = tunerMin
		}
		if th > tunerMax {
			th = tunerMax
		}
		t.threshold.Store(th)
		if g := tunerGauge.Load(); g != nil {
			g.Set(th)
		}
	}
}

// writevThreshold is the live crossover the send path consults per write.
func (t *wireTuner) writevThreshold() int { return int(t.threshold.Load()) }

var tunerGauge atomic.Pointer[telemetry.Gauge]

// bindTunerGauge exposes the live threshold as rdma.wire.writev_threshold;
// bound with the rest of the process-wide wire instruments.
func bindTunerGauge(reg *telemetry.Registry) {
	g := reg.Gauge("rdma.wire.writev_threshold")
	g.Set(tuner.threshold.Load())
	tunerGauge.Store(g)
}
