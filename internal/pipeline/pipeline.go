// Package pipeline turns RDX injection from a blocking RPC-style loop into
// a batched, observable operation — the control-plane counterpart of the
// wire layer's OpBatch coalescing.
//
// The paper's claim is that one-sided injection makes extension deployment
// a data-plane-speed operation; what the claim needs at fleet scale is a
// scheduler, not a sequential loop. A Scheduler job carries every target
// node from stage to publish on one worker set owned by the job:
// min(len(Targets), fan-out) goroutines, the job's own among them, pull
// node indices and stage them, meet at one publish barrier where the job
// decides (every node staged, BeforePublish), then pull indices again and
// publish. Every job is all-or-none, like the paper's rdx_broadcast: a
// node that fails to stage withholds every publish. Per-node writes are
// coalesced by the targets into OpBatch chains ending in a single doorbell
// WriteImm, so a fleet-wide rollout costs one latency-model charge per
// node instead of one per segment. Validation and JIT are the targets'
// business: core's Stage looks the artifact up in the control plane's
// content-addressed cache, so a fleet job validates and compiles once per
// digest however many nodes it spans.
//
// Robustness: every job runs under a deadline, transient fabric errors
// retry with exponential backoff, and failures are reported per node — a
// dead node yields a failed Outcome, never a wedged rollout.
// Observability: every stage (link → write → publish) records into
// "pipeline.*" histograms of the registry the scheduler is built with.
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

const (
	// jobDeadline bounds a whole job, its retries and backoff sleeps
	// included.
	jobDeadline = 30 * time.Second
	// maxRetries is how many times a transient per-node failure is retried
	// beyond the first attempt.
	maxRetries = 2
	// firstBackoff is the first retry delay, doubled per attempt up to
	// maxBackoff.
	firstBackoff = 200 * time.Microsecond
	maxBackoff   = 10 * time.Millisecond
)

// Scheduler is the batched injection pipeline. All methods are safe for
// concurrent use; the scheduler owns no long-lived goroutines, so it needs
// no Close.
type Scheduler struct {
	// nodeSem bounds concurrent per-node operations (Stage or Publish
	// calls) across all jobs: each takes one token. Its capacity, the
	// fan-out, also sizes each job's worker set.
	nodeSem chan struct{}

	m  metrics
	tr *telemetry.TraceRecorder // nil when tracing is off

	// New sets these from the package constants; this package's tests
	// shrink them.
	retries  int
	deadline time.Duration
}

// New builds a scheduler whose instruments ("pipeline.*") live in reg and
// whose per-stage spans go to tracer (nil turns tracing off). The fan-out
// is 4 × NumCPU.
func New(reg *telemetry.Registry, tracer *telemetry.TraceRecorder) *Scheduler {
	return &Scheduler{
		nodeSem:  make(chan struct{}, 4*runtime.NumCPU()),
		m:        newMetrics(reg),
		tr:       tracer,
		retries:  maxRetries,
		deadline: jobDeadline,
	}
}

// Inject runs one job synchronously: the job's worker set stages every
// node, waits at the publish barrier and commits. The error covers a bad
// request only; per-node failures, a rejected program among them, live in
// Result.Outcomes.
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
	ctx, cancel := context.WithTimeout(context.Background(), s.deadline)
	defer cancel()

	// One trace ID per job: it labels the pipeline-stage spans recorded
	// here and rides ctx into every target, QP, and endpoint the job
	// touches.
	trace := telemetry.NextTraceID()
	ctx = telemetry.WithTraceID(ctx, trace)

	start := time.Now()
	s.m.jobs.Inc()
	res := &Result{Trace: trace, Outcomes: make([]Outcome, len(req.Targets))}
	j := &job{s: s, ctx: ctx, req: req, res: res, staged: make([]Staged, len(req.Targets))}
	j.run()

	s.m.spanTotal.RecordDuration(time.Since(start))
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

// job is one job's per-node work. A worker set of
// min(len(Targets), fan-out) goroutines carries every node from stage to
// publish: the job's own goroutine is worker 0 and spawns the rest. Workers
// pull node indices off the stage counter until it runs dry, then wait at
// one barrier, where worker 0 alone decides whether to publish; if it does,
// the same workers pull indices off the publish counter. Every item takes
// a nodeSem token, so the fan-out bounds per-node operations across all
// jobs. No worker outlives run.
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
	// Every job is all-or-none, so the first stage that still fails after
	// its retries aborts the stages that haven't started: decide withholds
	// every publish once any stage has failed, so a later stage would only
	// write garbage (and re-run the verifier on a rejected program, node
	// after node). Likewise the first permanently failed publish (a fenced
	// controller, a deterministic remote fault — anything retries can't
	// fix) aborts the publishes that haven't started: a deposed leader
	// discovering the fence on node 1 should not keep hammering nodes 2..N
	// with CASes that will each be refused. The aborted outcomes wrap the
	// triggering error so callers can errors.Is the real cause (e.g.
	// core.ErrFenced) on any outcome.
	abort atomic.Pointer[error]
}

// run is worker 0: it spawns the other workers, stages alongside them,
// decides at the barrier, publishes alongside them, and returns once every
// worker has exited.
func (j *job) run() {
	s, req, res := j.s, j.req, j.res
	stageStart := time.Now()
	spawn := min(len(req.Targets), cap(s.nodeSem)) - 1
	j.release = make(chan struct{})
	j.staging.Add(spawn)
	j.done.Add(spawn)
	for w := 0; w < spawn; w++ {
		go j.worker()
	}
	j.stageItems()
	j.staging.Wait()
	s.m.spanStage.RecordDuration(time.Since(stageStart))

	j.publish = j.decide()
	close(j.release)
	if j.publish {
		j.publishItems()
	} else {
		for _, st := range j.staged {
			if st != nil {
				st.Abort()
			}
		}
	}
	j.done.Wait()
	if j.publish {
		res.Published = j.pubOK.Load() > 0
		if req.AfterPublish != nil {
			req.AfterPublish()
		}
	}
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
// staged or failed: a failed stage withholds every publish, and so does a
// failing BeforePublish, with its error on every staged node's outcome.
// Either way run aborts every staged node.
func (j *job) decide() bool {
	if j.abort.Load() != nil {
		return false
	}
	if j.req.BeforePublish != nil {
		start := time.Now()
		if err := j.req.BeforePublish(); err != nil {
			for i := range j.res.Outcomes {
				if j.res.Outcomes[i].Err == nil {
					j.res.Outcomes[i].Err = fmt.Errorf("pipeline: publish barrier: %w", err)
				}
			}
			j.s.m.spanPublish.RecordDuration(time.Since(start))
			return false
		}
	}
	return true
}

// stageItems stages nodes until the stage counter runs dry, each under one
// nodeSem token; once a stage has failed, the nodes left get the cause
// instead.
func (j *job) stageItems() {
	for {
		i := int(j.nextStage.Add(1) - 1)
		if i >= len(j.staged) {
			return
		}
		if cause := j.abort.Load(); cause != nil {
			o := &j.res.Outcomes[i]
			o.Node = j.req.Targets[i].NodeKey()
			o.Err = fmt.Errorf("pipeline: stage on %s skipped, job already failed: %w", o.Node, *cause)
			continue
		}
		j.s.nodeSem <- struct{}{}
		j.stageOne(i)
		<-j.s.nodeSem
	}
}

// publishItems publishes staged nodes until the publish counter runs dry,
// each under one nodeSem token.
func (j *job) publishItems() {
	for {
		i := int(j.nextPublish.Add(1) - 1)
		if i >= len(j.staged) {
			return
		}
		j.s.nodeSem <- struct{}{}
		j.publishOne(i)
		<-j.s.nodeSem
	}
}

// stageOne links and writes node i, with retries; a failure aborts the
// stages that haven't started.
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
	} else {
		err := o.Err
		j.abort.CompareAndSwap(nil, &err)
	}
	o.Latency = time.Since(nodeStart)
}

// publishOne commits node i, with retries, unless the job has already
// aborted. Node i's staged deployment is aborted unless it was published:
// on that abort, when its retries run out, or when the deadline passed
// before its turn.
func (j *job) publishOne(i int) {
	s := j.s
	pubStart := time.Now()
	o := &j.res.Outcomes[i]
	if cause := j.abort.Load(); cause != nil {
		j.staged[i].Abort()
		o.Err = fmt.Errorf("pipeline: publish on %s aborted, job already failed permanently: %w", o.Node, *cause)
		o.Latency += time.Since(pubStart)
		return
	}
	attempts, err := s.withRetry(j.ctx, func() error { return j.staged[i].Publish(j.ctx) })
	o.Attempts += attempts - 1
	if err != nil {
		j.staged[i].Abort()
		o.Err = err
		if !DefaultTransient(err) {
			j.abort.CompareAndSwap(nil, &err)
		}
	} else {
		j.pubOK.Add(1)
	}
	o.Latency += time.Since(pubStart)
	s.m.spanPublish.RecordDuration(time.Since(pubStart))
	s.tr.Span(j.res.Trace, "pipeline", "publish", o.Node, pubStart, 0, err)
}

// metrics is the scheduler's live instrumentation: counters for volume and
// one histogram per pipeline stage, drawn by name from a
// telemetry.Registry ("pipeline.*"), so a process-wide registry exports the
// scheduler's activity alongside the wire layer's with no extra wiring.
type metrics struct {
	jobs          *telemetry.Counter
	jobsFailed    *telemetry.Counter
	nodesInjected *telemetry.Counter
	nodesFailed   *telemetry.Counter
	retries       *telemetry.Counter

	spanLink    *telemetry.Histogram
	spanWrite   *telemetry.Histogram
	spanStage   *telemetry.Histogram // whole stage fan-out, slowest node
	spanPublish *telemetry.Histogram
	spanTotal   *telemetry.Histogram
}

func newMetrics(reg *telemetry.Registry) metrics {
	return metrics{
		jobs:          reg.Counter("pipeline.jobs"),
		jobsFailed:    reg.Counter("pipeline.jobs_failed"),
		nodesInjected: reg.Counter("pipeline.nodes_injected"),
		nodesFailed:   reg.Counter("pipeline.nodes_failed"),
		retries:       reg.Counter("pipeline.retries"),
		spanLink:      reg.Histogram("pipeline.span.link"),
		spanWrite:     reg.Histogram("pipeline.span.write"),
		spanStage:     reg.Histogram("pipeline.span.stage_fanout"),
		spanPublish:   reg.Histogram("pipeline.span.publish"),
		spanTotal:     reg.Histogram("pipeline.span.total"),
	}
}
