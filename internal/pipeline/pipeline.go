// Package pipeline turns RDX injection from a blocking RPC-style loop into
// a batched, observable operation — the control-plane counterpart of the
// wire layer's OpBatch coalescing.
//
// The paper's claim is that one-sided injection makes extension deployment
// a data-plane-speed operation; what the claim needs at fleet scale is a
// scheduler, not a sequential loop. A Scheduler job carries every target
// node through three phases on one worker set owned by the job:
// min(len(Targets), fan-out) goroutines, the job's own among them, pull
// node indices and reserve them (Target.Stage: link, version, reserve the
// blob, journal any claim), meet at a barrier, write them (Staged.Write),
// meet at the publish barrier where the job decides (every node written,
// BeforePublish), then publish (Staged.Publish). Journal entries are not
// waited for where they are made: at each barrier the job's own goroutine
// waits once for the phase's entries (Staged.Durable), and once more for
// the publish entries before the job returns — so every claim is durable
// before any write, every stage entry before the first flip, and a job
// journals in three flights however many nodes it spans. Every job is
// all-or-none, like the paper's rdx_broadcast: a node that fails to
// reserve or write withholds every publish. Per-node writes are coalesced
// by the targets into OpBatch chains ending in a single doorbell WriteImm,
// so a fleet-wide rollout costs one latency-model charge per node instead
// of one per segment. Validation and JIT are the targets' business: core's
// Stage looks the artifact up in the control plane's content-addressed
// cache, so a fleet job validates and compiles once per digest however
// many nodes it spans.
//
// Robustness: every job runs under a deadline, transient fabric errors
// retry with exponential backoff, and failures are reported per node — a
// dead node yields a failed Outcome, never a wedged rollout.
// Observability: every phase (link → write → publish) records into
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
	// nodeSem bounds concurrent per-node operations (Stage, Write or
	// Publish calls) across all jobs: each takes one token. Its capacity, the
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

// Inject runs one job synchronously: the job's worker set reserves and
// writes every node, waits at the publish barrier and commits. The error
// covers a bad request only; per-node failures, a rejected program among
// them, live in Result.Outcomes.
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

// A job's per-node work runs in three phases, each over every node.
const (
	phaseReserve = iota // Target.Stage: link, version, reserve, journal claims
	phaseWrite          // Staged.Write: the blob onto the node, journal the stage
	phasePublish        // Staged.Publish: the flip, journal the publish
	phases
)

// job is one job's per-node work. A worker set of
// min(len(Targets), fan-out) goroutines carries every node through the
// three phases: the job's own goroutine is worker 0 and spawns the rest.
// In each phase workers pull node indices off the phase's counter until it
// runs dry, then wait at a barrier, where worker 0 alone decides whether
// the job goes on: after the reserves it makes every claim durable, after
// the writes every stage entry, then runs BeforePublish. So each barrier
// waits for one journal flight, whatever the node count, and after the
// publishes worker 0 waits for one more. Every item takes a nodeSem token,
// so the fan-out bounds per-node operations across all jobs. No worker
// outlives run.
type job struct {
	s      *Scheduler
	ctx    context.Context
	req    Request
	res    *Result
	staged []Staged // nil where the node failed to reserve

	next    [phases]atomic.Int64
	arrived [phasePublish]sync.WaitGroup // spawned workers done with the phase
	release [phasePublish]chan struct{}  // closed once worker 0 has decided after the phase
	goOn    [phasePublish]bool           // the decision, written before release closes
	done    sync.WaitGroup               // spawned workers not yet exited

	pubOK atomic.Int64
	// Every job is all-or-none, so the first reserve or write that still
	// fails after its retries aborts the ones that haven't started: the
	// barrier withholds every publish once any has failed, so later work
	// would only write garbage (and re-run the verifier on a rejected
	// program, node after node). Likewise the first permanently failed
	// publish (a fenced controller, a deterministic remote fault —
	// anything retries can't fix) aborts the publishes that haven't
	// started: a deposed leader discovering the fence on node 1 should not
	// keep hammering nodes 2..N with CASes that will each be refused. The
	// aborted outcomes wrap the triggering error so callers can errors.Is
	// the real cause (e.g. core.ErrFenced) on any outcome.
	abort atomic.Pointer[error]
}

// run is worker 0: it spawns the other workers, works each phase alongside
// them, decides at each barrier, and returns once every worker has exited
// and every entry the job journaled is durable.
func (j *job) run() {
	s, req, res := j.s, j.req, j.res
	stageStart := time.Now()
	spawn := min(len(req.Targets), cap(s.nodeSem)) - 1
	for p := range j.release {
		j.release[p] = make(chan struct{})
		j.arrived[p].Add(spawn)
	}
	j.done.Add(spawn)
	for w := 0; w < spawn; w++ {
		go j.worker()
	}
	for p := range j.release {
		j.items(p)
		j.arrived[p].Wait()
		if p == phaseWrite {
			s.m.spanStage.RecordDuration(time.Since(stageStart))
		}
		j.goOn[p] = j.decide(p)
		close(j.release[p])
		if !j.goOn[p] {
			break
		}
	}
	published := j.goOn[phaseWrite]
	if published {
		j.items(phasePublish)
	} else {
		for _, st := range j.staged {
			if st != nil {
				st.Abort()
			}
		}
	}
	j.done.Wait()
	if published {
		res.Published = j.pubOK.Load() > 0
		if req.AfterPublish != nil {
			req.AfterPublish()
		}
	}
	// The publish entries, or an aborted job's claims, reach the standby
	// before the caller hears the outcome.
	j.durable()
}

// worker is every worker but worker 0.
func (j *job) worker() {
	defer j.done.Done()
	for p := range j.release {
		j.items(p)
		j.arrived[p].Done()
		<-j.release[p]
		if !j.goOn[p] {
			return
		}
	}
	j.items(phasePublish)
}

// decide is the barrier after phase p, run by worker 0 once every node has
// finished it: a failed reserve or write withholds every publish, and so
// does a failing BeforePublish, with its error on every reserved node's
// outcome. Going on, it first makes every entry the phase journaled
// durable, so every claim is on the standby before any write and every
// stage entry before BeforePublish and the first flip.
func (j *job) decide(p int) bool {
	if j.abort.Load() != nil {
		return false
	}
	j.durable()
	if p != phaseWrite || j.req.BeforePublish == nil {
		return true
	}
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
	return true
}

// durable waits until every reserved node's journal entries are durable:
// the first node's call waits for the flight, the rest find it landed.
func (j *job) durable() {
	for _, st := range j.staged {
		if st != nil {
			st.Durable()
		}
	}
}

// items works phase p on nodes until the phase's counter runs dry, each
// under one nodeSem token; once a reserve or write has failed, the nodes
// left in those phases get the cause instead.
func (j *job) items(p int) {
	for {
		i := int(j.next[p].Add(1) - 1)
		if i >= len(j.staged) {
			return
		}
		if cause := j.abort.Load(); cause != nil && p != phasePublish {
			o := &j.res.Outcomes[i]
			o.Node = j.req.Targets[i].NodeKey()
			o.Err = fmt.Errorf("pipeline: stage on %s skipped, job already failed: %w", o.Node, *cause)
			continue
		}
		j.s.nodeSem <- struct{}{}
		switch p {
		case phaseReserve:
			j.reserveOne(i)
		case phaseWrite:
			j.writeOne(i)
		default:
			j.publishOne(i)
		}
		<-j.s.nodeSem
	}
}

// reserveOne reserves node i, with retries; a failure aborts the reserves
// and writes that haven't started.
func (j *job) reserveOne(i int) {
	s, tgt := j.s, j.req.Targets[i]
	start := time.Now()
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
		s.tr.SpanFor(j.res.Trace, "pipeline", "link", o.Node, start, st.LinkDuration(), 0, nil)
	} else {
		err := o.Err
		j.abort.CompareAndSwap(nil, &err)
	}
	o.Latency = time.Since(start)
}

// writeOne writes node i, with retries; a failure aborts the writes that
// haven't started.
func (j *job) writeOne(i int) {
	s, st := j.s, j.staged[i]
	start := time.Now()
	o := &j.res.Outcomes[i]
	attempts, err := s.withRetry(j.ctx, func() error { return st.Write(j.ctx) })
	o.Attempts += attempts - 1
	if err == nil {
		s.m.spanWrite.RecordDuration(st.WriteDuration())
		s.tr.SpanFor(j.res.Trace, "pipeline", "write", o.Node, start, st.WriteDuration(), 0, nil)
	} else {
		o.Err = err
		j.abort.CompareAndSwap(nil, &err)
	}
	o.Latency += time.Since(start)
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
	spanStage   *telemetry.Histogram // reserve and write fan-outs, slowest node
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
