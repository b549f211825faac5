package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"rdx/internal/telemetry"
)

// Config shapes a Router. The zero value is usable.
type Config struct {
	// Registry receives every shard.* instrument; nil creates a private
	// registry.
	Registry *telemetry.Registry
}

// Each shard runs shardWorkers jobs at once and queues up to shardQueueCap
// more. Submitters block (not fail) on a full queue: the queue bound is
// backpressure, not a verdict.
const (
	shardWorkers  = 4
	shardQueueCap = 1024
)

// ErrShardUnavailable reports that the shard owning the job's (tenant,
// hook) key cannot take work: its leader is fenced or deposed, its front
// was stopped, or no shard owns the key yet. Only that shard's key range
// is affected — the router keeps dispatching to every other shard.
var ErrShardUnavailable = errors.New("shard: shard unavailable")

// Router fronts N control-plane shards: it routes each job to the shard
// owning its (tenant, hook) key and waits for the shard's fair-share
// workers to execute it. A fenced shard fails only its own key range —
// Publish keeps succeeding for every other shard's tenants, which is the
// whole point of sharding the control plane. Membership is fixed once set-up is done: AddShard builds the ring,
// and after a takeover Reinstate swaps a shard's executor in place, its
// state moved by journal replay alone.
type Router struct {
	reg  *telemetry.Registry
	ring *Map

	// workers and queueCap size each shard front AddShard and Reinstate
	// build: shardWorkers and shardQueueCap, which tests may shrink.
	workers, queueCap int

	// mu guards the shard fronts against AddShard, Reinstate and Close.
	mu     sync.RWMutex
	shards map[int]*Shard
	closed bool
}

// ErrRouterClosed reports an operation on a router after Close. Installing
// a shard front past Close would start a worker pool nothing ever stops —
// the Close-vs-Reinstate race this error fails instead.
var ErrRouterClosed = errors.New("shard: router closed")

// NewRouter builds an empty router; add shards with AddShard.
func NewRouter(cfg Config) *Router {
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Router{
		reg:      reg,
		ring:     NewMap(DefaultVNodes),
		workers:  shardWorkers,
		queueCap: shardQueueCap,
		shards:   map[int]*Shard{},
	}
}

// AddShard registers a shard and inserts it into the hash ring, starting
// its worker pool. Adding an existing ID replaces the front (the old one
// is stopped) without moving the ring. A closed router refuses with typed
// ErrRouterClosed — the shard front owns goroutines, and one installed
// after Close would never be stopped.
func (r *Router) AddShard(id int, ex Executor) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("%w: cannot add shard %d", ErrRouterClosed, id)
	}
	s := newShard(id, r.workers, r.queueCap, ex, r.reg)
	old := r.shards[id]
	r.shards[id] = s
	r.mu.Unlock()
	r.ring.Add(id)
	if old != nil {
		old.stop()
	}
	return nil
}

// Reinstate installs a successor executor for a fenced shard — the
// post-failover step after controlha.TakeOver hands a new leader the
// shard's replayed journal. The shard's key range resumes; its ring
// position, instruments, and accumulated counters are unchanged. Racing
// Close refuses with typed ErrRouterClosed instead of leaking a worker
// pool and queue nothing will ever stop.
func (r *Router) Reinstate(id int, ex Executor) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("%w: cannot reinstate shard %d", ErrRouterClosed, id)
	}
	old, ok := r.shards[id]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("shard: reinstate of unknown shard %d", id)
	}
	r.shards[id] = newShard(id, r.workers, r.queueCap, ex, r.reg)
	r.mu.Unlock()
	old.stop()
	return nil
}

// ShardFor reveals which shard owns (tenant, hook) — the bench and the
// stats surface use it; Publish routes internally.
func (r *Router) ShardFor(tenant, hook string) (int, bool) {
	return r.ring.Lookup(tenant, hook)
}

// ShardDown reports whether a shard is currently fenced/stopped (unknown
// shards count as down).
func (r *Router) ShardDown(id int) bool {
	r.mu.RLock()
	s := r.shards[id]
	r.mu.RUnlock()
	return s == nil || s.Down()
}

// Publish routes, schedules, and executes one job, blocking until the
// owning shard finishes it (or ctx expires). Errors are typed:
// ErrShardUnavailable when the owning shard is fenced or absent, executor
// errors otherwise.
func (r *Router) Publish(ctx context.Context, j *Job) error {
	if j.Tenant == "" || j.Hook == "" || j.Ext == nil {
		return fmt.Errorf("shard: job needs tenant, hook, and extension")
	}
	id, ok := r.ring.Lookup(j.Tenant, j.Hook)
	if !ok {
		return fmt.Errorf("%w: no shards registered", ErrShardUnavailable)
	}
	r.mu.RLock()
	s := r.shards[id]
	r.mu.RUnlock()
	if s == nil {
		return fmt.Errorf("%w: shard %d absent", ErrShardUnavailable, id)
	}
	j.done = make(chan error, 1)
	if err := s.submit(j); err != nil {
		return err
	}
	select {
	case err := <-j.done:
		return err
	case <-ctx.Done():
		// The job may still execute; its buffered done channel absorbs the
		// late outcome.
		return fmt.Errorf("shard: publish wait: %w", ctx.Err())
	}
}

// Close stops every shard front; queued jobs fail with ErrShardUnavailable.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	shards := make([]*Shard, 0, len(r.shards))
	for _, s := range r.shards {
		shards = append(shards, s)
	}
	r.mu.Unlock()
	for _, s := range shards {
		s.stop()
	}
}

// ShardStatus is one row of the router's per-shard snapshot.
type ShardStatus struct {
	ID         int
	Down       bool
	QueueDepth int
	Published  uint64
	Failed     uint64
	Fenced     uint64
}

// Status snapshots every shard, sorted by ID.
func (r *Router) Status() []ShardStatus {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ShardStatus, 0, len(r.shards))
	for id, s := range r.shards {
		out = append(out, ShardStatus{
			ID:         id,
			Down:       s.Down(),
			QueueDepth: s.q.len(),
			Published:  s.published.Value(),
			Failed:     s.failed.Value(),
			Fenced:     s.fenced.Value(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
