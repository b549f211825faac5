package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"rdx/internal/clock"
	"rdx/internal/telemetry"
)

// Config shapes a Router. The zero value is usable: defaults are filled
// by NewRouter.
type Config struct {
	// VNodes is the virtual-node count per shard on the consistent-hash
	// ring (DefaultVNodes if 0).
	VNodes int
	// Workers bounds concurrently executing jobs per shard (default 4 —
	// matched to the per-shard scheduler's work-queue width).
	Workers int
	// QueueCap bounds each shard's fair-share queue (default 1024).
	// Submitters block (not fail) on a full queue: the token buckets are
	// the admission verdict, the queue bound is backpressure.
	QueueCap int
	// DefaultQuota admits tenants with no explicit quota. The zero value
	// is unlimited.
	DefaultQuota TenantQuota
	// DefaultWeight is the fair-share weight of tenants with no explicit
	// weight (default 1).
	DefaultWeight int
	// Registry receives every shard.* instrument; nil creates a private
	// registry.
	Registry *telemetry.Registry
	// Clock is the time source for admission refill, queue-wait stamps, and
	// rebalance latency (wall clock if nil — the simulator's seam).
	Clock clock.Clock
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.DefaultWeight <= 0 {
		c.DefaultWeight = 1
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
}

// Router fronts N control-plane shards: it admits jobs against per-tenant
// token buckets, routes each to the shard owning its (tenant, hook) key,
// and waits for the shard's fair-share workers to execute it. A fenced
// shard fails only its own key range — Publish keeps succeeding for every
// other shard's tenants, which is the whole point of sharding the control
// plane.
type Router struct {
	cfg  Config
	reg  *telemetry.Registry
	ring *Map
	adm  *Admission

	mu      sync.RWMutex
	shards  map[int]*Shard
	weights map[string]int
	closed  bool

	// keyMu guards the published-key table feeding rebalance planning: for
	// every key that ever published successfully, which executor nodes its
	// jobs targeted. Separate from mu — Publish appends here on its success
	// path and must not contend with shard membership reads.
	keyMu sync.Mutex
	keys  map[string]*keyInfo

	// rebMu serializes rebalances: one membership change migrates state at
	// a time, so two concurrent Rebalance calls cannot drain each other's
	// receivers mid-handoff.
	rebMu sync.Mutex
}

// ErrRouterClosed reports an operation on a router after Close. Installing
// a shard front past Close would start a worker pool nothing ever stops —
// the Close-vs-Reinstate race this error fails instead.
var ErrRouterClosed = errors.New("shard: router closed")

// keyInfo is one published (tenant, hook) key's routing footprint.
type keyInfo struct {
	tenant, hook string
	nodes        map[string]struct{} // executor node names jobs named
	all          bool                // some job targeted every node
}

// NewRouter builds an empty router; add shards with AddShard.
func NewRouter(cfg Config) *Router {
	cfg.fillDefaults()
	return &Router{
		cfg:     cfg,
		reg:     cfg.Registry,
		ring:    NewMap(cfg.VNodes),
		adm:     NewAdmission(cfg.DefaultQuota, cfg.Registry).WithClock(cfg.Clock),
		shards:  map[int]*Shard{},
		weights: map[string]int{},
		keys:    map[string]*keyInfo{},
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
	s := newShard(id, r.cfg.Workers, r.cfg.QueueCap, ex, r.cfg.Clock, r.reg)
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
	r.shards[id] = newShard(id, r.cfg.Workers, r.cfg.QueueCap, ex, r.cfg.Clock, r.reg)
	r.mu.Unlock()
	old.stop()
	return nil
}

// RemoveShard takes a shard out of the ring and stops it; its key range
// redistributes to the remaining shards but its deployed state does NOT
// move — the abrupt-departure path (a shard lost for good). For elastic
// scale-in use Rebalance, which drains the front, journals the handoff
// marker, and replays the departing keys' state into the receivers first.
func (r *Router) RemoveShard(id int) {
	r.ring.Remove(id)
	r.mu.Lock()
	s := r.shards[id]
	delete(r.shards, id)
	r.mu.Unlock()
	if s != nil {
		s.stop()
	}
}

// SetQuota overrides a tenant's admission quota.
func (r *Router) SetQuota(tenant string, q TenantQuota) { r.adm.SetQuota(tenant, q) }

// SetWeight overrides a tenant's fair-share weight (minimum 1).
func (r *Router) SetWeight(tenant string, w int) {
	r.mu.Lock()
	r.weights[tenant] = w
	r.mu.Unlock()
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

// Publish admits, routes, schedules, and executes one job, blocking until
// the owning shard finishes it (or ctx expires). Errors are typed:
// ErrQuotaExceeded from admission, ErrShardUnavailable when the owning
// shard is fenced or absent, ErrRebalancing while the owner is mid-drain,
// executor errors otherwise. A job that never reaches a shard's queue
// refunds its admission tokens: the quota charges work the control plane
// might do, and without the refund a tenant retrying against a downed
// shard would watch ErrShardUnavailable mutate into ErrQuotaExceeded as
// the failed attempts drained its buckets.
func (r *Router) Publish(ctx context.Context, j *Job) error {
	if j.Tenant == "" || j.Hook == "" || j.Ext == nil {
		return fmt.Errorf("shard: job needs tenant, hook, and extension")
	}
	if err := r.adm.Admit(j.Tenant, j.Bytes); err != nil {
		return err
	}
	id, epoch, ok := r.ring.LookupEpoch(j.Tenant, j.Hook)
	if !ok {
		r.adm.Refund(j.Tenant, j.Bytes)
		return fmt.Errorf("%w: no shards registered", ErrShardUnavailable)
	}
	r.mu.RLock()
	s := r.shards[id]
	w, okw := r.weights[j.Tenant]
	r.mu.RUnlock()
	if s == nil {
		r.adm.Refund(j.Tenant, j.Bytes)
		return fmt.Errorf("%w: shard %d absent", ErrShardUnavailable, id)
	}
	if !okw {
		w = r.cfg.DefaultWeight
	}
	j.weight = w
	j.routedEpoch = epoch
	j.done = make(chan error, 1)
	if err := s.submit(j); err != nil {
		r.adm.Refund(j.Tenant, j.Bytes)
		return err
	}
	select {
	case err := <-j.done:
		if err == nil {
			r.recordKey(j)
		}
		return err
	case <-ctx.Done():
		// The job may still execute; its buffered done channel absorbs the
		// late outcome.
		return fmt.Errorf("shard: publish wait: %w", ctx.Err())
	}
}

// recordKey notes a successfully published key's routing footprint — the
// table Rebalance plans state migration from. Tracking is by observed
// publishes: a key that never published through this router has no
// deployed state to migrate. (A publish whose caller abandoned the wait is
// the one best-effort gap; its next successful publish re-records it.)
func (r *Router) recordKey(j *Job) {
	r.keyMu.Lock()
	defer r.keyMu.Unlock()
	k := Key(j.Tenant, j.Hook)
	ki := r.keys[k]
	if ki == nil {
		ki = &keyInfo{tenant: j.Tenant, hook: j.Hook}
		r.keys[k] = ki
	}
	if len(j.Nodes) == 0 {
		ki.all = true
		return
	}
	if ki.nodes == nil {
		ki.nodes = map[string]struct{}{}
	}
	for _, n := range j.Nodes {
		ki.nodes[n] = struct{}{}
	}
}

// RingEpoch returns the current ring membership epoch (see Map.Epoch).
func (r *Router) RingEpoch() uint64 { return r.ring.Epoch() }

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
