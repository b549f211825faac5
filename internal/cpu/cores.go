// Package cpu models a node's CPU cores as a bounded execution pool.
//
// Every piece of *software* work on an RDX data-plane node — application
// request handling, extension execution, and (in the agent baseline) the
// verify/JIT/load pipeline — must run on one of the node's cores. Cores are
// a hard concurrency bound enforced by semaphore, so control-path and
// data-path work genuinely queue against each other: this is the mechanism
// behind the paper's Fig 2c contention collapse and the +25.3% Redis claim.
//
// One-sided RDMA operations never touch this pool; the software RNIC in
// package rdma services them on its own goroutines. That asymmetry is the
// whole point of RDX's agentless architecture.
package cpu

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrStopped is returned when work is submitted to a stopped core pool.
var ErrStopped = errors.New("cpu: core pool stopped")

// Cores is a fixed-size pool of simulated CPU cores. Work runs
// synchronously on the caller's goroutine once Run has taken a core.
type Cores struct {
	sem     chan struct{}
	stopped atomic.Bool
}

// New creates a pool with n cores. n must be positive.
func New(n int) *Cores {
	if n <= 0 {
		panic("cpu: core count must be positive")
	}
	return &Cores{sem: make(chan struct{}, n)}
}

// Run executes fn on a core, blocking until a core is free and fn returns.
// It returns ErrStopped if the pool has been stopped, or ctx.Err() if the
// context is cancelled while waiting for a core. Work admitted before Stop
// still runs.
func (c *Cores) Run(ctx context.Context, fn func()) error {
	if c.stopped.Load() {
		return ErrStopped
	}
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-c.sem }()
	fn()
	return nil
}

// Stop prevents new work. Tasks already admitted by Run finish on their
// callers' goroutines.
func (c *Cores) Stop() { c.stopped.Store(true) }

// Burn occupies the calling core for approximately d of simulated CPU work.
// The core's semaphore slot stays held for the duration, which is what makes
// contention visible to other tasks. Long burns sleep (cheap and accurate at
// millisecond scale); sub-millisecond burns spin, because OS sleep
// granularity would otherwise quantize microsecond-scale request costs. Use
// it inside a Run callback to model fixed-cost request handling.
func Burn(d time.Duration) {
	if d <= 0 {
		return
	}
	if d >= time.Millisecond {
		time.Sleep(d)
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		for i := 0; i < 64; i++ {
			_ = i * i
		}
	}
}
