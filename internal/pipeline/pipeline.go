// Package pipeline turns RDX injection from a blocking RPC-style loop into
// an asynchronous, batched, observable operation — the control-plane
// counterpart of the wire layer's OpBatch coalescing.
//
// The paper's claim is that one-sided injection makes extension deployment
// a data-plane-speed operation; what the claim needs at fleet scale is a
// scheduler, not a sequential loop. Scheduler accepts injection jobs on a
// bounded work queue, runs validation and JIT once per extension (the
// prepare cache is content-addressed by blob digest, so concurrent jobs for
// the same code share one compile), then fans link+write+publish out to all
// target nodes concurrently under a bounded worker pool. Per-node writes
// are coalesced by the targets into OpBatch chains ending in a single
// doorbell WriteImm, so a fleet-wide rollout costs one latency-model charge
// per node instead of one per segment.
//
// Robustness: every job carries a deadline, transient fabric errors retry
// with exponential backoff, and failures are reported per node — a dead
// node yields a failed Outcome, never a wedged rollout. Observability:
// every stage (queue → validate → jit → link → write → publish) records
// into telemetry histograms surfaced by Stats.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rdx/internal/artifact"
	"rdx/internal/ext"
	"rdx/internal/telemetry"
)

// Config shapes a Scheduler. The zero value is usable: defaults are filled
// by New.
type Config struct {
	// Workers bounds concurrently executing jobs (the work-queue width).
	Workers int
	// FanOut bounds concurrent per-node operations across all jobs.
	FanOut int
	// Retries is how many times a transient per-node failure is retried
	// beyond the first attempt.
	Retries int
	// Backoff is the initial retry delay, doubled per attempt up to
	// MaxBackoff.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Deadline bounds a job when the request does not carry its own.
	Deadline time.Duration

	// Validate and Compile run once per extension digest before fan-out
	// (rdx_validate_code / rdx_JIT_compile_code on the control plane).
	// Either may be nil when the targets handle preparation themselves.
	Validate func(*ext.Extension) error
	Compile  func(*ext.Extension, []Target) error

	// Transient classifies retryable errors; nil uses DefaultTransient.
	Transient func(error) bool

	// PrepareCap bounds the per-digest prepare memo: completed digests
	// beyond the cap evict least-recently-injected. An evicted digest
	// re-runs Validate/Compile on its next job — cheap when those route
	// into the control plane's artifact cache, a deliberate re-prepare
	// when they don't. 0 means DefaultPrepareCap.
	PrepareCap int

	// Registry supplies the scheduler's named instruments ("pipeline.*").
	// Sharing one registry with the wire layer gives a single /metrics
	// export covering both; nil creates a private registry (Stats still
	// works, nothing is exported).
	Registry *telemetry.Registry

	// Tracer, if set, receives one "pipeline"-layer span per stage of every
	// job, recorded under the job's trace ID (Result.Trace). The same ID
	// rides the job's context into targets and down to the wire.
	Tracer *telemetry.TraceRecorder
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.FanOut <= 0 {
		c.FanOut = 4 * runtime.NumCPU()
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.Backoff <= 0 {
		c.Backoff = 200 * time.Microsecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 10 * time.Millisecond
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
	if c.Transient == nil {
		c.Transient = DefaultTransient
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.PrepareCap <= 0 {
		c.PrepareCap = DefaultPrepareCap
	}
}

// DefaultPrepareCap is the prepare-memo bound when Config.PrepareCap is 0.
const DefaultPrepareCap = 256

// Scheduler is the asynchronous batched injection pipeline. All methods
// are safe for concurrent use; the scheduler owns no long-lived goroutines,
// so it needs no Close — admission control is the work queue.
type Scheduler struct {
	cfg     Config
	jobSem  chan struct{} // work-queue admission
	nodeSem chan struct{} // global per-node fan-out bound

	// prepMu guards both prepare structures: inflight single-flights
	// concurrent preparations of one digest, prepDone memoizes completed
	// digests in a bounded LRU (PR 1's memo grew without bound; a
	// long-lived scheduler serving many distinct extensions no longer
	// does).
	prepMu   sync.Mutex
	inflight map[string]*prepEntry
	prepDone *artifact.LRU[string, struct{}]

	m  metrics
	tr *telemetry.TraceRecorder // nil when tracing is off
}

type prepEntry struct {
	done chan struct{}
	err  error
}

// New builds a scheduler from cfg (zero-value fields get defaults).
func New(cfg Config) *Scheduler {
	cfg.fillDefaults()
	return &Scheduler{
		cfg:      cfg,
		jobSem:   make(chan struct{}, cfg.Workers),
		nodeSem:  make(chan struct{}, cfg.FanOut),
		inflight: make(map[string]*prepEntry),
		prepDone: artifact.NewLRU[string, struct{}](cfg.PrepareCap, nil),
		m:        newMetrics(cfg.Registry),
		tr:       cfg.Tracer,
	}
}

// Inject runs one job synchronously: admission, prepare, staged fan-out,
// commit. The error covers job-level failures (bad request, queue deadline,
// validation); per-node failures live in Result.Outcomes.
func (s *Scheduler) Inject(req Request) (*Result, error) {
	if req.Ext == nil {
		return nil, fmt.Errorf("pipeline: nil extension")
	}
	if req.Hook == "" {
		return nil, fmt.Errorf("pipeline: empty hook")
	}
	if len(req.Targets) == 0 {
		return nil, fmt.Errorf("pipeline: no targets")
	}
	deadline := req.Deadline
	if deadline <= 0 {
		deadline = s.cfg.Deadline
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	// One trace ID per job: it labels the pipeline-stage spans recorded
	// here and rides ctx into every target, QP, and endpoint the job
	// touches.
	trace := telemetry.NextTraceID()
	ctx = telemetry.WithTraceID(ctx, trace)

	start := time.Now()
	res := &Result{Trace: trace}

	// Queue: wait for a job slot.
	select {
	case s.jobSem <- struct{}{}:
	case <-ctx.Done():
		s.m.rejected.Inc()
		return nil, fmt.Errorf("pipeline: job queue admission: %w", ctx.Err())
	}
	defer func() { <-s.jobSem }()
	res.Queue = time.Since(start)
	s.m.spanQueue.RecordDuration(res.Queue)
	s.tr.Span(trace, "pipeline", "queue", "", start, 0, nil)
	s.m.jobs.Inc()

	// Prepare: validate + JIT once per extension digest.
	if err := s.prepare(ctx, req.Ext, req.Targets, res); err != nil {
		s.m.jobsFailed.Inc()
		return nil, err
	}

	// Stage fan-out: link + batched write on every node concurrently.
	stageStart := time.Now()
	staged := make([]Staged, len(req.Targets))
	res.Outcomes = make([]Outcome, len(req.Targets))
	var wg sync.WaitGroup
	for i, tgt := range req.Targets {
		wg.Add(1)
		go func(i int, tgt Target) {
			defer wg.Done()
			s.nodeSem <- struct{}{}
			defer func() { <-s.nodeSem }()
			nodeStart := time.Now()
			o := &res.Outcomes[i]
			o.Node = tgt.NodeKey()
			var st Staged
			o.Attempts, o.Err = s.withRetry(ctx, func() error {
				var err error
				st, err = tgt.Stage(ctx, req.Ext, req.Hook)
				return err
			})
			if o.Err == nil {
				staged[i] = st
				o.Version = st.Version()
				s.m.spanLink.RecordDuration(st.LinkDuration())
				s.m.spanWrite.RecordDuration(st.WriteDuration())
				if s.tr != nil {
					// Approximate sub-spans: link leads the node's staging
					// work, the batched write follows it.
					s.tr.Record(telemetry.TraceEvent{Trace: trace, Layer: "pipeline", Name: "link",
						Node: o.Node, Start: nodeStart, Dur: st.LinkDuration()})
					s.tr.Record(telemetry.TraceEvent{Trace: trace, Layer: "pipeline", Name: "write",
						Node: o.Node, Start: nodeStart.Add(st.LinkDuration()), Dur: st.WriteDuration()})
				}
			}
			o.Latency = time.Since(nodeStart)
		}(i, tgt)
	}
	wg.Wait()
	res.StageAll = time.Since(stageStart)
	s.m.spanStage.RecordDuration(res.StageAll)

	s.finishJob(ctx, req, res, staged, start)
	return res, nil
}

// finishJob runs the commit phase (barrier, publish fan-out, gate clear)
// and final accounting.
func (s *Scheduler) finishJob(ctx context.Context, req Request, res *Result, staged []Staged, start time.Time) {
	anyStageFailed := false
	for i := range res.Outcomes {
		if res.Outcomes[i].Err != nil {
			anyStageFailed = true
			break
		}
	}

	publishStart := time.Now()
	switch {
	case req.Atomic && anyStageFailed:
		// Transactional job: withhold every publish. Staged blobs are
		// unreferenced garbage in the nodes' ring allocators.
	default:
		if req.BeforePublish != nil {
			if err := req.BeforePublish(); err != nil {
				for i := range res.Outcomes {
					if res.Outcomes[i].Err == nil {
						res.Outcomes[i].Err = fmt.Errorf("pipeline: publish barrier: %w", err)
					}
				}
				s.m.spanPublish.RecordDuration(time.Since(publishStart))
				break
			}
		}
		var wg sync.WaitGroup
		var pubOK atomic.Int64
		// For atomic jobs, the first permanently failed publish (a fenced
		// controller, a deterministic remote fault — anything retries can't
		// fix) aborts the publishes that haven't started: a half-published
		// atomic rollout is exactly what Atomic exists to avoid, and a
		// deposed leader discovering the fence on node 1 should not keep
		// hammering nodes 2..N with CASes that will each be refused.
		// The aborted outcomes wrap the triggering error so callers can
		// errors.Is the real cause (e.g. core.ErrFenced) on any outcome.
		var abort atomic.Pointer[error]
		for i := range staged {
			if staged[i] == nil {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s.nodeSem <- struct{}{}
				defer func() { <-s.nodeSem }()
				pubStart := time.Now()
				o := &res.Outcomes[i]
				if cause := abort.Load(); req.Atomic && cause != nil {
					o.Err = fmt.Errorf("pipeline: publish on %s aborted, atomic job already failed permanently: %w", o.Node, *cause)
					o.Latency += time.Since(pubStart)
					return
				}
				attempts, err := s.withRetry(ctx, func() error { return staged[i].Publish(ctx) })
				o.Attempts += attempts - 1
				if err != nil {
					o.Err = err
					if req.Atomic && !s.cfg.Transient(err) {
						abort.CompareAndSwap(nil, &err)
					}
				} else {
					pubOK.Add(1)
				}
				o.Latency += time.Since(pubStart)
				s.m.spanPublish.RecordDuration(time.Since(pubStart))
				s.tr.Span(res.Trace, "pipeline", "publish", o.Node, pubStart, 0, err)
			}(i)
		}
		wg.Wait()
		res.Published = pubOK.Load() > 0
		if req.AfterPublish != nil {
			req.AfterPublish()
		}
	}
	res.Publish = time.Since(publishStart)

	res.Total = time.Since(start)
	s.m.spanTotal.RecordDuration(res.Total)
	for i := range res.Outcomes {
		if res.Outcomes[i].Err != nil {
			s.m.nodesFailed.Inc()
		} else {
			s.m.nodesInjected.Inc()
		}
	}
	if res.FirstErr() != nil {
		s.m.jobsFailed.Inc()
	}
}

// Submit enqueues a job asynchronously; the result arrives on the returned
// channel once the scheduler admits and completes it.
func (s *Scheduler) Submit(req Request) <-chan JobDone {
	ch := make(chan JobDone, 1)
	go func() {
		res, err := s.Inject(req)
		ch <- JobDone{Result: res, Err: err}
	}()
	return ch
}

// JobDone is an asynchronous job completion.
type JobDone struct {
	Result *Result
	Err    error
}

// prepare runs Validate and Compile once per extension digest. Concurrent
// jobs for the same digest share one flight; completed digests memoize in
// a bounded LRU; failures are not cached, so a later job retries
// preparation.
func (s *Scheduler) prepare(ctx context.Context, e *ext.Extension, targets []Target, res *Result) error {
	if s.cfg.Validate == nil && s.cfg.Compile == nil {
		return nil
	}
	digest := e.Digest()
	s.prepMu.Lock()
	if _, ok := s.prepDone.Get(digest); ok {
		s.prepMu.Unlock()
		s.m.prepareHits.Inc()
		return nil
	}
	if ent, ok := s.inflight[digest]; ok {
		s.prepMu.Unlock()
		select {
		case <-ent.done:
			if ent.err == nil {
				s.m.prepareHits.Inc()
			}
			return ent.err
		case <-ctx.Done():
			return fmt.Errorf("pipeline: prepare wait: %w", ctx.Err())
		}
	}
	ent := &prepEntry{done: make(chan struct{})}
	s.inflight[digest] = ent
	s.prepMu.Unlock()

	s.m.prepareMisses.Inc()
	trace := telemetry.TraceIDFrom(ctx)
	if s.cfg.Validate != nil {
		t0 := time.Now()
		ent.err = s.cfg.Validate(e)
		res.Validate = time.Since(t0)
		s.m.spanValidate.RecordDuration(res.Validate)
		s.tr.Span(trace, "pipeline", "validate", "", t0, 0, ent.err)
	}
	if ent.err == nil && s.cfg.Compile != nil {
		t0 := time.Now()
		ent.err = s.cfg.Compile(e, targets)
		res.Compile = time.Since(t0)
		s.m.spanCompile.RecordDuration(res.Compile)
		s.tr.Span(trace, "pipeline", "jit", "", t0, 0, ent.err)
	}
	s.prepMu.Lock()
	delete(s.inflight, digest)
	if ent.err == nil {
		s.prepDone.Put(digest, struct{}{})
	}
	s.prepMu.Unlock()
	if ent.err != nil {
		// The failure may be environmental; memoizing it would poison
		// every future job for this extension.
		ent.err = fmt.Errorf("pipeline: prepare: %w", ent.err)
	}
	close(ent.done)
	return ent.err
}

// preparedLen reports the memoized-digest count (test surface).
func (s *Scheduler) preparedLen() int {
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	return s.prepDone.Len()
}

// Stats returns a snapshot of the scheduler's counters and per-stage spans.
func (s *Scheduler) Stats() Stats { return s.m.snapshot() }
