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
	// Abort gives up a deployment that will not be published, so the
	// target may reuse what staging reserved. The scheduler calls it once
	// for every staged node it does not publish: another node's failed
	// stage, a failed BeforePublish, a job aborted before that node's turn,
	// or a Publish that failed or never ran before the deadline. It never
	// follows a successful Publish.
	Abort()
	// Version is the node-local version the publish will install.
	Version() uint64
	// LinkDuration and WriteDuration split the staging cost for tracing.
	LinkDuration() time.Duration
	WriteDuration() time.Duration
}

// Request is one injection job: deploy Ext to Hook on every target, all
// or none.
type Request struct {
	Ext     *ext.Extension
	Hook    string
	Targets []Target

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
	Node    string
	Version uint64
	// Attempts counts the stage attempts plus the publish retries
	// (1 = neither needed a retry).
	Attempts int
	Latency  time.Duration // stage + publish for this node
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
	// false means a stage or BeforePublish failed, or every per-node
	// publish errored — in all of those no node serves the new version.
	Published bool
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
