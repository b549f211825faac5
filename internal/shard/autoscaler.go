package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rdx/internal/clock"
	"rdx/internal/telemetry"
)

// AutoscalerConfig shapes the router's elastic scaling loop.
type AutoscalerConfig struct {
	// Min and Max bound the shard count (defaults 1 and 8). The autoscaler
	// never scales below Min or above Max no matter what the signals say.
	Min int
	Max int
	// HighDepth is the per-shard queue depth that counts as pressure
	// (default 64): any shard at or above it marks the tick high.
	HighDepth int64
	// HighWait is the queue-wait p99 that counts as pressure (default
	// 50ms). Only ticks that saw new wait samples consult it — the
	// histograms are cumulative, and a stale p99 must not hold the fleet
	// scaled out after the burst has passed.
	HighWait time.Duration
	// LowDepth marks a tick low when every shard's depth is at or below it
	// (default 0 — scale in only on empty queues).
	LowDepth int64
	// HighTicks and LowTicks are the hysteresis: how many consecutive
	// high (low) ticks before the autoscaler acts (defaults 3 and 10, so
	// scale-out is eager and scale-in reluctant).
	HighTicks int
	LowTicks  int
	// Interval is the sampling period (default 100ms).
	Interval time.Duration
	// Cooldown is the minimum gap between membership changes (default
	// 10×Interval): a rebalance shifts load and resets the signals, so the
	// loop waits for them to mean something again.
	Cooldown time.Duration
	// DrainTimeout bounds each rebalance's drain barrier (default 30s).
	DrainTimeout time.Duration
	// Provision builds the executor for a newly added shard. Required for
	// scale-out; an autoscaler without it only scales in.
	Provision func(id int) (Executor, error)
	// Clock drives the sampling ticker and the cooldown arithmetic (wall
	// clock if nil). A test can bind a sim.VirtualClock and step the loop
	// tick by tick with Advance, no wall-clock sleeps involved.
	Clock clock.Clock
}

func (c *AutoscalerConfig) fillDefaults() {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 8
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.HighDepth <= 0 {
		c.HighDepth = 64
	}
	if c.HighWait <= 0 {
		c.HighWait = 50 * time.Millisecond
	}
	if c.HighTicks <= 0 {
		c.HighTicks = 3
	}
	if c.LowTicks <= 0 {
		c.LowTicks = 10
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * c.Interval
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
}

// Autoscaler drives elastic shard membership from the router's own
// instruments: sustained queue pressure (depth gauges, queue-wait p99)
// adds a shard through RebalanceAdd; sustained idleness retires the
// highest-numbered shard through Rebalance. Hysteresis (consecutive-tick
// thresholds) plus a post-change cooldown keep it from flapping — a
// single burst or the load dip right after a rebalance never triggers a
// membership change by itself.
type Autoscaler struct {
	r   *Router
	cfg AutoscalerConfig
	reg *telemetry.Registry

	mu     sync.Mutex
	stopCh chan struct{}
	wg     sync.WaitGroup

	highStreak int
	lowStreak  int
	lastChange time.Time
	waitCounts map[int]uint64 // per-shard queue.wait sample count at last tick

	scaleOuts *telemetry.Counter
	scaleIns  *telemetry.Counter
	errors    *telemetry.Counter
	shardsNow *telemetry.Gauge
}

// NewAutoscaler builds an autoscaler over r, registering its instruments
// ("shard.autoscale.*") in the router's registry. Call Start to run it.
func NewAutoscaler(r *Router, cfg AutoscalerConfig) *Autoscaler {
	cfg.fillDefaults()
	reg := r.Registry()
	return &Autoscaler{
		r:          r,
		cfg:        cfg,
		reg:        reg,
		waitCounts: map[int]uint64{},
		scaleOuts:  reg.Counter("shard.autoscale.scale_outs"),
		scaleIns:   reg.Counter("shard.autoscale.scale_ins"),
		errors:     reg.Counter("shard.autoscale.errors"),
		shardsNow:  reg.Gauge("shard.autoscale.shards"),
	}
}

// Start launches the sampling loop. Stop (or Close on the router plus
// Stop) shuts it down; Start after Stop restarts it.
func (a *Autoscaler) Start() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stopCh != nil {
		return
	}
	ch := make(chan struct{})
	a.stopCh = ch
	a.wg.Add(1)
	go a.loop(ch)
}

// Stop halts the sampling loop and waits for any in-flight rebalance the
// loop started to finish.
func (a *Autoscaler) Stop() {
	a.mu.Lock()
	ch := a.stopCh
	a.stopCh = nil
	a.mu.Unlock()
	if ch == nil {
		return
	}
	close(ch)
	a.wg.Wait()
}

func (a *Autoscaler) loop(stop chan struct{}) {
	defer a.wg.Done()
	tick := a.cfg.Clock.NewTicker(a.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C():
			a.tick()
		}
	}
}

// tick samples the fleet and acts when the hysteresis thresholds trip.
func (a *Autoscaler) tick() {
	st := a.r.Status()
	a.shardsNow.Set(int64(len(st)))
	if len(st) == 0 {
		return
	}
	high, low := a.classify(st)
	if high {
		a.highStreak++
		a.lowStreak = 0
	} else if low {
		a.lowStreak++
		a.highStreak = 0
	} else {
		a.highStreak, a.lowStreak = 0, 0
	}
	if a.cfg.Clock.Since(a.lastChange) < a.cfg.Cooldown {
		return
	}
	switch {
	case a.highStreak >= a.cfg.HighTicks && len(st) < a.cfg.Max && a.cfg.Provision != nil:
		a.scaleOut(st)
	case a.lowStreak >= a.cfg.LowTicks && len(st) > a.cfg.Min:
		a.scaleIn(st)
	}
}

// classify reads the pressure signals for one tick: high when any shard's
// queue is deep or queue waits crossed HighWait since the last tick, low
// when every queue sits at or below LowDepth.
func (a *Autoscaler) classify(st []ShardStatus) (high, low bool) {
	low = true
	seen := map[int]uint64{}
	for _, s := range st {
		if int64(s.QueueDepth) >= a.cfg.HighDepth {
			high = true
		}
		if int64(s.QueueDepth) > a.cfg.LowDepth {
			low = false
		}
		h := a.reg.Histogram(fmt.Sprintf("shard.%d.queue.wait", s.ID))
		n := h.Count()
		seen[s.ID] = n
		// Consult the cumulative p99 only when this shard recorded new
		// waits since the last tick; an idle shard's history is not
		// pressure.
		if n > a.waitCounts[s.ID] && time.Duration(h.Percentile(99)) >= a.cfg.HighWait {
			high = true
		}
	}
	a.waitCounts = seen
	return high, low
}

// scaleOut provisions and joins one shard at max(ID)+1.
func (a *Autoscaler) scaleOut(st []ShardStatus) {
	id := 0
	for _, s := range st {
		if s.ID >= id {
			id = s.ID + 1
		}
	}
	ex, err := a.cfg.Provision(id)
	if err != nil {
		a.errors.Inc()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), a.cfg.DrainTimeout)
	defer cancel()
	if _, err := a.r.RebalanceAdd(ctx, id, ex); err != nil {
		a.errors.Inc()
		if errors.Is(err, ErrRouterClosed) {
			return
		}
		return
	}
	a.scaleOuts.Inc()
	a.lastChange = a.cfg.Clock.Now()
	a.highStreak, a.lowStreak = 0, 0
}

// scaleIn retires the highest-numbered live shard. Downed shards are
// skipped — they are the failover path's problem (TakeOver + Reinstate),
// not capacity to reclaim.
func (a *Autoscaler) scaleIn(st []ShardStatus) {
	id, found := -1, false
	for _, s := range st {
		if !s.Down && s.ID > id {
			id, found = s.ID, true
		}
	}
	if !found {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), a.cfg.DrainTimeout)
	defer cancel()
	if _, err := a.r.Rebalance(ctx, id); err != nil {
		a.errors.Inc()
		return
	}
	a.scaleIns.Inc()
	a.lastChange = a.cfg.Clock.Now()
	a.highStreak, a.lowStreak = 0, 0
}
