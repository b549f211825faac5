// Package clock holds the time seam injected into the HA paths through
// core.ControlPlane.Clock. It is a leaf: production code depends on it
// without pulling in the model checker, and internal/sim implements Clock
// with a scheduler-bound virtual clock.
package clock

import "time"

// Clock is the time seam the lease TTL arithmetic and the takeover latency
// read. Production code defaults to Real; the simulator binds a
// sim.VirtualClock whose Now only advances when the scheduler fires a
// timer.
type Clock interface {
	Now() time.Time
	Since(t time.Time) time.Duration
}

// Real is the wall-clock Clock. The zero value is usable.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }
