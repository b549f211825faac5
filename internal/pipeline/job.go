package pipeline

import (
	"context"
	"fmt"
	"time"

	"rdx/internal/ext"
	"rdx/internal/telemetry"
)

// Target is one node's injection surface, implemented by core.CodeFlow.
// Stage must do everything except publication — validate and compile
// (core asks its artifact cache, once per digest), link against the node's
// GOT, allocate remote memory, and write the blob (batched) — so the
// scheduler can drive the commit point of every node from one place.
type Target interface {
	// NodeKey identifies the node in outcomes and logs.
	NodeKey() string
	// Stage prepares extension e on hook without publishing it. ctx bounds
	// the work and carries the job's trace ID; implementations should
	// thread it down to their verbs so the job's wire operations are
	// correlated under one trace.
	Stage(ctx context.Context, e *ext.Extension, hook string) (Staged, error)
}

// Staged is a prepared-but-unpublished deployment on one node.
type Staged interface {
	// Publish flips the staged blob live (CAS + doorbell). ctx bounds the
	// commit and carries the job's trace ID.
	Publish(ctx context.Context) error
	// Version is the node-local version the publish will install.
	Version() uint64
	// LinkDuration and WriteDuration split the staging cost for tracing.
	LinkDuration() time.Duration
	WriteDuration() time.Duration
}

// Request is one injection job: deploy Ext to Hook on every target.
type Request struct {
	Ext     *ext.Extension
	Hook    string
	Targets []Target

	// Deadline bounds the whole job including queueing and retries;
	// zero uses Config.Deadline.
	Deadline time.Duration

	// Atomic withholds every publish if any node failed to stage, giving
	// broadcast transactionality (all nodes flip or none do). The default
	// is partial completion: healthy nodes publish, dead nodes report.
	Atomic bool

	// BeforePublish, if set, runs after all staging completes and before
	// the first publish — the BBU gate-raise + drain barrier slots here.
	// An error withholds every publish.
	BeforePublish func() error
	// AfterPublish, if set, always runs once publishes finish (or are
	// withheld after BeforePublish succeeded) — the gate-clear slot.
	AfterPublish func()
}

// Outcome reports one node's fate in a job.
type Outcome struct {
	Node     string
	Version  uint64
	Attempts int           // staging attempts (1 = no retry needed)
	Latency  time.Duration // stage + publish for this node, excluding queueing
	Err      error         // nil on success
}

// Result summarizes one completed job.
type Result struct {
	Outcomes []Outcome

	// Trace is the job's trace ID: every pipeline stage span and every wire
	// verb the job issued is recorded under it (when the scheduler has a
	// tracer), so the whole injection can be dumped end to end.
	Trace telemetry.TraceID
	// Published reports whether at least one node's publish succeeded;
	// false means an atomic job aborted, BeforePublish failed, or every
	// per-node publish errored — in all of those no node serves the new
	// version.
	Published bool

	// Per-stage wall-clock spans for this job. Validation and JIT have no
	// span of their own: a target runs them inside Stage on an artifact
	// cache miss, so they land in StageAll.
	Queue    time.Duration // submit → admission by the work queue
	StageAll time.Duration // parallel stage fan-out, slowest node
	Publish  time.Duration // barrier + parallel commit fan-out
	Total    time.Duration
}

// Failed returns the outcomes that carry errors.
func (r *Result) Failed() []Outcome {
	var out []Outcome
	for _, o := range r.Outcomes {
		if o.Err != nil {
			out = append(out, o)
		}
	}
	return out
}

// FirstErr returns the first per-node error, or nil if every node made it.
func (r *Result) FirstErr() error {
	for _, o := range r.Outcomes {
		if o.Err != nil {
			return fmt.Errorf("pipeline: node %s: %w", o.Node, o.Err)
		}
	}
	return nil
}
