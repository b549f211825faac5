package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rdx/internal/clock"
	"rdx/internal/core"
	"rdx/internal/ext"
	"rdx/internal/telemetry"
)

// Job is one tenant publish: deploy Ext to Hook on the listed nodes,
// executed by whichever shard owns the (Tenant, Hook) key.
type Job struct {
	Tenant string
	Hook   string
	Ext    *ext.Extension
	// Nodes names the target nodes (executor-defined names); empty means
	// every node the shard's executor is bound to.
	Nodes []string
	// Bytes is the staged-bytes estimate charged against the tenant's
	// bytes quota; 0 charges only a publish token.
	Bytes int

	done chan error
	once sync.Once
	enq  time.Time
}

// finish delivers the job's outcome exactly once.
func (j *Job) finish(err error) {
	j.once.Do(func() { j.done <- err })
}

// Executor runs one admitted, scheduled job on a shard's control plane.
// An error wrapping core.ErrFenced marks the whole shard fenced: its
// leader lost the lease, so every queued and future job for its key range
// fails with ErrShardUnavailable until Router.Reinstate installs a
// successor.
type Executor interface {
	Execute(ctx context.Context, j *Job) error
}

// ExecFunc adapts a function to Executor.
type ExecFunc func(context.Context, *Job) error

// Execute implements Executor.
func (f ExecFunc) Execute(ctx context.Context, j *Job) error { return f(ctx, j) }

// Shard is one control-plane shard as the router sees it: a fair-share
// queue of admitted jobs, a bounded worker pool draining it into the
// shard's executor, and the shard's slice of the fleet registry. The
// executor wraps the shard's own ControlPlane — with its own lease,
// journal, and standby from internal/controlha — so nothing here is
// shared across shards except the process-wide artifact cache and the
// registry the instruments live in.
type Shard struct {
	ID int

	q       *fairQueue
	exec    Executor
	workers int
	clock   clock.Clock
	down    atomic.Bool
	cause   atomic.Pointer[error]
	wg      sync.WaitGroup
	ctx     context.Context
	cancel  context.CancelFunc

	depth     *telemetry.Gauge
	queueWait *telemetry.Histogram
	latency   *telemetry.Histogram
	published *telemetry.Counter
	failed    *telemetry.Counter
	fenced    *telemetry.Counter
}

// newShard builds and starts a shard front: workers goroutines draining a
// queueCap-deep fair queue into ex. Instruments are named "shard.<id>.*"
// so N shards sharing one registry stay distinguishable.
func newShard(id, workers, queueCap int, ex Executor, clk clock.Clock, reg *telemetry.Registry) *Shard {
	if clk == nil {
		clk = clock.Real{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Shard{
		ID:        id,
		q:         newFairQueue(queueCap),
		exec:      ex,
		workers:   workers,
		clock:     clk,
		ctx:       ctx,
		cancel:    cancel,
		depth:     reg.Gauge(fmt.Sprintf("shard.%d.queue.depth", id)),
		queueWait: reg.Histogram(fmt.Sprintf("shard.%d.queue.wait", id)),
		latency:   reg.Histogram(fmt.Sprintf("shard.%d.publish.latency", id)),
		published: reg.Counter(fmt.Sprintf("shard.%d.published", id)),
		failed:    reg.Counter(fmt.Sprintf("shard.%d.failed", id)),
		fenced:    reg.Counter(fmt.Sprintf("shard.%d.fenced", id)),
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.run()
	}
	return s
}

// submit queues a job (blocking on a full queue). The shard may go down
// while the caller is blocked; the queue's close error is returned then.
func (s *Shard) submit(j *Job) error {
	if s.down.Load() {
		return s.unavailable()
	}
	j.enq = s.clock.Now()
	if err := s.q.push(j); err != nil {
		return err
	}
	s.depth.Set(int64(s.q.len()))
	return nil
}

// run is one worker: pop by fair share, execute, account. An executor
// error wrapping core.ErrFenced downs the whole shard — this leader can
// no longer flip any pointer in its key range, so queued jobs fail fast
// instead of each discovering the fence one CAS at a time.
func (s *Shard) run() {
	defer s.wg.Done()
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		s.runOne(j)
	}
}

// runOne executes one popped job and delivers its outcome.
func (s *Shard) runOne(j *Job) {
	s.depth.Set(int64(s.q.len()))
	s.queueWait.RecordDuration(s.clock.Since(j.enq))
	start := s.clock.Now()
	err := s.exec.Execute(s.ctx, j)
	s.latency.RecordDuration(s.clock.Since(start))
	if err == nil {
		s.published.Inc()
		j.finish(nil)
		return
	}
	if s.ctx.Err() != nil && errors.Is(err, context.Canceled) {
		// Shard teardown (stop/Reinstate) cancelled the executor context
		// mid-job: that is the shard going away, not the tenant's publish
		// failing on its own terms — surface the documented typed error and
		// keep shard.<id>.failed a tenant-visible-failure counter.
		j.finish(fmt.Errorf("%w: shard %d stopped mid-execute: %w", ErrShardUnavailable, s.ID, err))
		return
	}
	s.failed.Inc()
	if errors.Is(err, core.ErrFenced) {
		s.fence(err)
		j.finish(fmt.Errorf("%w: %w", ErrShardUnavailable, err))
		return
	}
	j.finish(err)
}

// fence marks the shard down with cause and fails every queued job. Idempotent.
func (s *Shard) fence(cause error) {
	if s.down.Swap(true) {
		return
	}
	s.fenced.Inc()
	wrapped := fmt.Errorf("%w: %w", ErrShardUnavailable, cause)
	s.cause.Store(&wrapped)
	s.q.close(wrapped)
	s.depth.Set(0)
}

// unavailable returns the shard's typed down error.
func (s *Shard) unavailable() error {
	if p := s.cause.Load(); p != nil {
		return *p
	}
	return fmt.Errorf("%w: shard %d down", ErrShardUnavailable, s.ID)
}

// Down reports whether the shard is fenced or stopped.
func (s *Shard) Down() bool { return s.down.Load() }

// stop tears the shard front down (router Close / Reinstate): queued jobs
// fail with ErrShardUnavailable, workers drain and exit.
func (s *Shard) stop() {
	if !s.down.Swap(true) {
		err := fmt.Errorf("%w: shard %d stopped", ErrShardUnavailable, s.ID)
		s.cause.Store(&err)
		s.q.close(err)
	}
	s.cancel()
	s.wg.Wait()
}
