// Package pipeline turns RDX injection from a blocking RPC-style loop into
// an asynchronous, batched, observable operation — the control-plane
// counterpart of the wire layer's OpBatch coalescing.
//
// The paper's claim is that one-sided injection makes extension deployment
// a data-plane-speed operation; what the claim needs at fleet scale is a
// scheduler, not a sequential loop. Scheduler accepts injection jobs on a
// bounded work queue, then carries every target node from stage to publish
// on one worker set owned by the job:
// min(len(Targets), FanOut) goroutines, the job's own among them, pull node
// indices and stage them, meet at one publish barrier where the job decides
// (Atomic, BeforePublish), then pull indices again and publish. Per-node
// writes are coalesced by the targets into OpBatch chains ending in a
// single doorbell WriteImm, so a fleet-wide rollout costs one latency-model
// charge per node instead of one per segment. Validation and JIT are the
// targets' business: core's Stage looks the artifact up in the control
// plane's content-addressed cache, so a fleet job validates and compiles
// once per digest however many nodes it spans.
//
// Robustness: every job carries a deadline, transient fabric errors retry
// with exponential backoff, and failures are reported per node — a dead
// node yields a failed Outcome, never a wedged rollout. Observability:
// every stage (queue → link → write → publish) records
// into telemetry histograms surfaced by Stats.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rdx/internal/telemetry"
)

// Config shapes a Scheduler. The zero value is usable: defaults are filled
// by New.
type Config struct {
	// Workers bounds concurrently executing jobs (the work-queue width).
	Workers int
	// FanOut bounds concurrent per-node operations (Stage or Publish calls)
	// across all jobs: each takes one token of a shared semaphore. It also
	// sizes each job's worker set, min(len(Targets), FanOut) goroutines
	// that stage every node, wait at the publish barrier, then publish.
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

	// Transient classifies retryable errors; nil uses DefaultTransient.
	Transient func(error) bool

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
}

// Scheduler is the asynchronous batched injection pipeline. All methods
// are safe for concurrent use; the scheduler owns no long-lived goroutines,
// so it needs no Close — admission control is the work queue.
type Scheduler struct {
	cfg     Config
	jobSem  chan struct{} // work-queue admission
	nodeSem chan struct{} // global per-node fan-out bound

	m  metrics
	tr *telemetry.TraceRecorder // nil when tracing is off
}

// New builds a scheduler from cfg (zero-value fields get defaults).
func New(cfg Config) *Scheduler {
	cfg.fillDefaults()
	return &Scheduler{
		cfg:     cfg,
		jobSem:  make(chan struct{}, cfg.Workers),
		nodeSem: make(chan struct{}, cfg.FanOut),
		m:       newMetrics(cfg.Registry),
		tr:      cfg.Tracer,
	}
}

// Inject runs one job synchronously: admission, then the job's worker set
// stages every node, waits at the publish barrier and commits. The error
// covers job-level failures (bad request, queue deadline); per-node
// failures, a rejected program among them, live in Result.Outcomes.
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

	res.Outcomes = make([]Outcome, len(req.Targets))
	j := &job{s: s, ctx: ctx, req: req, res: res, staged: make([]Staged, len(req.Targets))}
	j.run()

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
	return res, nil
}

// job is one admitted job's per-node work. A worker set of
// min(len(Targets), FanOut) goroutines carries every node from stage to
// publish: the job's own goroutine is worker 0 and spawns the rest. Workers
// pull node indices off the stage counter until it runs dry, then wait at
// one barrier, where worker 0 alone makes the Atomic / BeforePublish
// decision; if it says publish, the same workers pull indices off the
// publish counter. Every item takes a nodeSem token, so FanOut bounds
// per-node operations across all jobs. No worker outlives run.
type job struct {
	s      *Scheduler
	ctx    context.Context
	req    Request
	res    *Result
	staged []Staged // nil where the node failed to stage

	nextStage, nextPublish atomic.Int64
	staging                sync.WaitGroup // spawned workers still staging
	done                   sync.WaitGroup // spawned workers not yet exited
	release                chan struct{}  // closed once worker 0 has decided
	publish                bool           // the decision, written before release closes

	pubOK atomic.Int64
	// For atomic jobs, the first stage that still fails after its retries
	// aborts the stages that haven't started: decide withholds every
	// publish once any stage has failed, so a later stage would only write
	// garbage (and re-run the verifier on a rejected program, node after
	// node). Likewise the first permanently failed publish (a fenced
	// controller, a deterministic remote fault — anything retries can't
	// fix) aborts the publishes that haven't started: a half-published
	// atomic rollout is exactly what Atomic exists to avoid, and a deposed
	// leader discovering the fence on node 1 should not keep hammering
	// nodes 2..N with CASes that will each be refused. The aborted
	// outcomes wrap the triggering error so callers can errors.Is the real
	// cause (e.g. core.ErrFenced) on any outcome.
	abort atomic.Pointer[error]
}

// run is worker 0: it spawns the other workers, stages alongside them,
// decides at the barrier, publishes alongside them, and returns once every
// worker has exited.
func (j *job) run() {
	s, req, res := j.s, j.req, j.res
	stageStart := time.Now()
	spawn := min(len(req.Targets), s.cfg.FanOut) - 1
	j.release = make(chan struct{})
	j.staging.Add(spawn)
	j.done.Add(spawn)
	for w := 0; w < spawn; w++ {
		go j.worker()
	}
	j.stageItems()
	j.staging.Wait()
	res.StageAll = time.Since(stageStart)
	s.m.spanStage.RecordDuration(res.StageAll)

	publishStart := time.Now()
	j.publish = j.decide(publishStart)
	close(j.release)
	if j.publish {
		j.publishItems()
	}
	j.done.Wait()
	if j.publish {
		res.Published = j.pubOK.Load() > 0
		if req.AfterPublish != nil {
			req.AfterPublish()
		}
	}
	res.Publish = time.Since(publishStart)
}

// worker is every worker but worker 0.
func (j *job) worker() {
	defer j.done.Done()
	j.stageItems()
	j.staging.Done()
	<-j.release
	if j.publish {
		j.publishItems()
	}
}

// decide is the publish barrier, run by worker 0 once every node has
// staged or failed: an atomic job with a failed stage withholds every
// publish (its staged blobs are unreferenced garbage in the nodes' ring
// allocators), and a failing BeforePublish withholds them all with its
// error on every staged node's outcome.
func (j *job) decide(publishStart time.Time) bool {
	if j.req.Atomic {
		for i := range j.res.Outcomes {
			if j.res.Outcomes[i].Err != nil {
				return false
			}
		}
	}
	if j.req.BeforePublish != nil {
		if err := j.req.BeforePublish(); err != nil {
			for i := range j.res.Outcomes {
				if j.res.Outcomes[i].Err == nil {
					j.res.Outcomes[i].Err = fmt.Errorf("pipeline: publish barrier: %w", err)
				}
			}
			j.s.m.spanPublish.RecordDuration(time.Since(publishStart))
			return false
		}
	}
	return true
}

// stageItems stages nodes until the stage counter runs dry, each under one
// nodeSem token; once an atomic job has aborted, the nodes left get the
// cause instead.
func (j *job) stageItems() {
	for {
		i := int(j.nextStage.Add(1) - 1)
		if i >= len(j.staged) {
			return
		}
		if cause := j.abort.Load(); cause != nil {
			o := &j.res.Outcomes[i]
			o.Node = j.req.Targets[i].NodeKey()
			o.Err = fmt.Errorf("pipeline: stage on %s skipped, atomic job already failed: %w", o.Node, *cause)
			continue
		}
		j.s.nodeSem <- struct{}{}
		j.stageOne(i)
		<-j.s.nodeSem
	}
}

// publishItems publishes staged nodes until the publish counter runs dry,
// each under one nodeSem token; nodes that failed to stage are skipped.
func (j *job) publishItems() {
	for {
		i := int(j.nextPublish.Add(1) - 1)
		if i >= len(j.staged) {
			return
		}
		if j.staged[i] == nil {
			continue
		}
		j.s.nodeSem <- struct{}{}
		j.publishOne(i)
		<-j.s.nodeSem
	}
}

// stageOne links and writes node i, with retries; in an atomic job a
// failure aborts the stages that haven't started.
func (j *job) stageOne(i int) {
	s, tgt := j.s, j.req.Targets[i]
	nodeStart := time.Now()
	o := &j.res.Outcomes[i]
	o.Node = tgt.NodeKey()
	var st Staged
	o.Attempts, o.Err = s.withRetry(j.ctx, func() error {
		var err error
		st, err = tgt.Stage(j.ctx, j.req.Ext, j.req.Hook)
		return err
	})
	if o.Err == nil {
		j.staged[i] = st
		o.Version = st.Version()
		s.m.spanLink.RecordDuration(st.LinkDuration())
		s.m.spanWrite.RecordDuration(st.WriteDuration())
		if s.tr != nil {
			// Approximate sub-spans: link leads the node's staging work,
			// the batched write follows it.
			s.tr.Record(telemetry.TraceEvent{Trace: j.res.Trace, Layer: "pipeline", Name: "link",
				Node: o.Node, Start: nodeStart, Dur: st.LinkDuration()})
			s.tr.Record(telemetry.TraceEvent{Trace: j.res.Trace, Layer: "pipeline", Name: "write",
				Node: o.Node, Start: nodeStart.Add(st.LinkDuration()), Dur: st.WriteDuration()})
		}
	} else if j.req.Atomic {
		err := o.Err
		j.abort.CompareAndSwap(nil, &err)
	}
	o.Latency = time.Since(nodeStart)
}

// publishOne commits node i, with retries, unless an atomic job has
// already aborted.
func (j *job) publishOne(i int) {
	s := j.s
	pubStart := time.Now()
	o := &j.res.Outcomes[i]
	if cause := j.abort.Load(); cause != nil {
		o.Err = fmt.Errorf("pipeline: publish on %s aborted, atomic job already failed permanently: %w", o.Node, *cause)
		o.Latency += time.Since(pubStart)
		return
	}
	attempts, err := s.withRetry(j.ctx, func() error { return j.staged[i].Publish(j.ctx) })
	o.Attempts += attempts - 1
	if err != nil {
		o.Err = err
		if j.req.Atomic && !s.cfg.Transient(err) {
			j.abort.CompareAndSwap(nil, &err)
		}
	} else {
		j.pubOK.Add(1)
	}
	o.Latency += time.Since(pubStart)
	s.m.spanPublish.RecordDuration(time.Since(pubStart))
	s.tr.Span(j.res.Trace, "pipeline", "publish", o.Node, pubStart, 0, err)
}

// Stats returns a snapshot of the scheduler's counters and per-stage spans.
func (s *Scheduler) Stats() Stats { return s.m.snapshot() }
