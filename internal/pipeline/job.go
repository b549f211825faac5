package pipeline

import (
	"context"
	"fmt"
	"time"

	"rdx/internal/ext"
	"rdx/internal/telemetry"
)

// Target is one node's injection surface, implemented by core.CodeFlow.
// Stage reserves a deploy — validate and compile (core asks its artifact
// cache, once per digest), link against the node's GOT, take a version and
// reserve the blob, journaling any claim — and writes nothing; the Staged
// it returns writes and publishes. So the scheduler drives every node's
// write and commit point from one place, and waits for a whole job's
// journal entries once per phase.
type Target interface {
	// NodeKey identifies the node in outcomes and logs.
	NodeKey() string
	// Stage reserves extension e on hook without writing it. ctx bounds
	// the work and carries the job's trace ID; implementations should
	// thread it down to their verbs so the job's wire operations are
	// correlated under one trace.
	Stage(ctx context.Context, e *ext.Extension, hook string) (Staged, error)
}

// Staged is a reserved, not yet published deployment on one node.
type Staged interface {
	// Write puts the reserved blob on the node (batched) and journals the
	// stage without waiting. It runs only after Durable has covered the
	// reservation, and may be retried.
	Write(ctx context.Context) error
	// Publish flips the written blob live (CAS + doorbell) and journals the
	// publish without waiting. ctx bounds the commit and carries the job's
	// trace ID.
	Publish(ctx context.Context) error
	// Durable returns once every journal entry the deployment has made so
	// far is durable. Entries become durable in journal order, so across a
	// job the first call waits and the rest return at once.
	Durable()
	// Abort gives up a deployment that will not be published, so the
	// target may reuse what staging reserved. The scheduler calls it once
	// for every reserved node it does not publish: another node's failed
	// reserve or write, its own failed write, a failed BeforePublish, a
	// job aborted before that node's turn, or a Publish that failed or
	// never ran before the deadline. It never follows a successful Publish.
	Abort()
	// Version is the node-local version the publish will install.
	Version() uint64
	// LinkDuration and WriteDuration split the staging cost for tracing:
	// the reserve (Stage) and the Write.
	LinkDuration() time.Duration
	WriteDuration() time.Duration
}

// Request is one injection job: deploy Ext to Hook on every target, all
// or none.
type Request struct {
	Ext     *ext.Extension
	Hook    string
	Targets []Target

	// BeforePublish, if set, runs after every node's write and stage entry
	// are done and durable, and before the first publish — the BBU
	// gate-raise + drain barrier slots here. An error withholds every
	// publish.
	BeforePublish func() error
	// AfterPublish, if set, always runs once publishes finish (or are
	// withheld after BeforePublish succeeded) — the gate-clear slot.
	AfterPublish func()
}

// Outcome reports one node's fate in a job.
type Outcome struct {
	Node    string
	Version uint64
	// Attempts counts the reserve attempts plus the write and publish
	// retries (1 = none needed a retry).
	Attempts int
	Latency  time.Duration // reserve + write + publish for this node
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
	// false means a reserve, a write or BeforePublish failed, or every
	// per-node publish errored — in all of those no node serves the new
	// version.
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
