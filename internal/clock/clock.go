// Package clock holds the time and randomness seams injected into the
// HA/shard paths. It is a leaf: production code depends on it without
// pulling in the model checker, and internal/sim implements Clock with a
// scheduler-bound virtual clock.
package clock

import (
	"math/rand"
	"time"
)

// Clock is the time seam injected into the HA/shard paths. Production
// code defaults to Real; the simulator binds a sim.VirtualClock whose
// Sleep parks the caller as a schedule step and whose Now only advances
// when the scheduler fires a timer.
type Clock interface {
	Now() time.Time
	Since(t time.Time) time.Duration
	Sleep(d time.Duration)
	NewTicker(d time.Duration) Ticker
}

// Ticker is the minimal ticker surface the repo's periodic loops need.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Real is the wall-clock Clock. The zero value is usable.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

type realTicker struct{ t *time.Ticker }

func (r realTicker) C() <-chan time.Time { return r.t.C }
func (r realTicker) Stop()               { r.t.Stop() }

// Rand is the randomness seam injected wherever the HA/shard paths want
// jitter or sampling: production code seeds from entropy, the simulator
// derives every stream from the run's seed so replays are exact.
type Rand interface {
	Intn(n int) int
	Int63() int64
	Float64() float64
}

// NewRand returns a deterministic Rand for the given seed.
func NewRand(seed int64) Rand { return rand.New(rand.NewSource(seed)) }
