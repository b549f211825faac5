// Package sim is a deterministic simulation and model-checking harness
// for the HA control plane. It runs the real controlha and shard code
// under a controlled scheduler: every remote verb and every virtual-clock
// sleep becomes a schedule step, the scheduler — not the Go runtime —
// picks which pending step fires next (seeded random schedules, recorded
// replay, or bounded systematic exploration), invariant checkers run
// after every step, and a violation is reproduced exactly from its seed
// and choice list, then greedily shrunk to a minimal trace.
//
// The package deliberately depends only on clock, mem, rdma and faultnet,
// and nothing outside tests and sim/scenario imports it — no binary links
// it: production code takes its time seam from internal/clock, verbs fired
// here run the endpoint's own executor (rdma.Endpoint.Local), and the
// scenarios that wire real protocol code under the scheduler live one
// level down in sim/scenario.
package sim

import (
	"sync"
	"time"

	"rdx/internal/clock"
)

// simEpoch is the fixed start instant of every virtual clock (2026-01-01
// UTC): two runs of the same seed see byte-identical timestamps.
var simEpoch = time.Unix(1767225600, 0).UTC()

// VirtualClock is a deterministic clock.Clock. It has two modes:
//
//   - standalone (sched == nil): tests drive it with Advance; Sleep blocks
//     until some Advance moves now past the deadline, tickers deliver on
//     buffered channels as Advance crosses their periods.
//   - scheduler-bound (built by Scheduler): Sleep parks the calling proc
//     as a pending timer step; firing that step advances now to the
//     deadline. Time moves only when the schedule says so.
type VirtualClock struct {
	mu      sync.Mutex
	now     time.Time
	sched   *Scheduler
	waiters []*vcWaiter
	tickers []*vcTicker
}

var _ clock.Clock = (*VirtualClock)(nil)

type vcWaiter struct {
	deadline time.Time
	ch       chan struct{}
}

type vcTicker struct {
	clock  *VirtualClock
	ch     chan time.Time
	period time.Duration
	next   time.Time
	stop   bool
}

// NewVirtualClock creates a standalone virtual clock starting at start
// (the fixed simulation epoch if zero).
func NewVirtualClock(start time.Time) *VirtualClock {
	if start.IsZero() {
		start = simEpoch
	}
	return &VirtualClock{now: start}
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since implements Clock.
func (c *VirtualClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Sleep implements Clock. Scheduler-bound clocks park the caller as a
// timer step; standalone clocks block until Advance crosses the deadline.
func (c *VirtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	deadline := c.now.Add(d)
	sched := c.sched
	if sched != nil {
		c.mu.Unlock()
		sched.parkTimer(deadline)
		return
	}
	w := &vcWaiter{deadline: deadline, ch: make(chan struct{})}
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	<-w.ch
}

// NewTicker implements Clock. Ticks deliver on a 1-buffered channel as the
// clock advances past each period boundary (missed ticks coalesce, like
// time.Ticker).
func (c *VirtualClock) NewTicker(d time.Duration) clock.Ticker {
	if d <= 0 {
		d = time.Nanosecond
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &vcTicker{clock: c, ch: make(chan time.Time, 1), period: d, next: c.now.Add(d)}
	c.tickers = append(c.tickers, t)
	return t
}

func (t *vcTicker) C() <-chan time.Time { return t.ch }

func (t *vcTicker) Stop() {
	t.clock.mu.Lock()
	t.stop = true
	t.clock.mu.Unlock()
}

// Advance moves a standalone clock forward by d, waking sleepers and
// delivering ticker ticks whose deadlines the move crosses.
func (c *VirtualClock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.deliverLocked(c.now.Add(d))
	c.mu.Unlock()
}

// advanceTo is the scheduler's entry: move now to t (never backward).
func (c *VirtualClock) advanceTo(t time.Time) {
	c.mu.Lock()
	if t.After(c.now) {
		c.deliverLocked(t)
	}
	c.mu.Unlock()
}

// deliverLocked moves now to target and delivers everything due.
func (c *VirtualClock) deliverLocked(target time.Time) {
	c.now = target
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.deadline.After(target) {
			close(w.ch)
			continue
		}
		kept = append(kept, w)
	}
	c.waiters = kept
	liveTickers := c.tickers[:0]
	for _, t := range c.tickers {
		if t.stop {
			continue
		}
		for !t.next.After(target) {
			select {
			case t.ch <- t.next:
			default: // coalesce like time.Ticker
			}
			t.next = t.next.Add(t.period)
		}
		liveTickers = append(liveTickers, t)
	}
	c.tickers = liveTickers
}
