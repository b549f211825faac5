package telemetry

import "sync/atomic"

// Counter is a monotonic event counter safe for hot paths: Add is a single
// atomic increment, no locks. It fills the gap next to Histogram (latency
// distributions) for plain occurrence counts — jobs admitted, verbs batched,
// retries, failures.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a zeroed counter.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }
