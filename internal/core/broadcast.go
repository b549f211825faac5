package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rdx/internal/ext"
	"rdx/internal/node"
	"rdx/internal/pipeline"
)

// Group is a collective CodeFlow: a set of node handles updated as one.
type Group []*CodeFlow

// BroadcastOptions shape a collective update.
type BroadcastOptions struct {
	// BBU enables Big Bubble Update: every target hook's buffering gate is
	// raised, in-flight requests are drained, then all pointers flip and
	// the gates clear — so no request observes a mix of old and new logic
	// anywhere in the group.
	BBU bool
	// Hook names the target hook on every node.
	Hook string
	// DrainTimeout bounds the BBU in-flight drain (default 2s).
	DrainTimeout time.Duration
}

// BroadcastReport summarizes one collective update.
type BroadcastReport struct {
	// Prepare spans validation/compilation (amortized by the registry),
	// per-node linking, and parallel staging of all blobs.
	Prepare time.Duration
	// Commit spans gate-raise (if BBU), all pointer flips, and gate-clear:
	// the window during which the update becomes visible.
	Commit time.Duration
	// GateHeld is how long request buffering lasted (BBU only).
	GateHeld time.Duration
	Total    time.Duration
	Versions []uint64
}

// Broadcast is rdx_broadcast: transactionally deploy one extension to every
// node in the group (the write set spans all target hooks, §4). It runs as
// one Atomic job on the control plane's injection scheduler: staging
// (validate/JIT through the artifact cache, link, batched write) fans out to
// all nodes in parallel and publishes only if every node staged. The
// scheduler aborts every staged deployment it does not publish: unless a
// failed publish left the blob in doubt, no pointer exposes it, and it
// leaves pending, so the node's code-region allocator may reuse the space. BBU gates slot into the scheduler's
// publish barrier. Of several failed nodes the error reports a fenced one first:
// callers key on errors.Is(err, ErrFenced) to stand down.
func (g Group) Broadcast(e *ext.Extension, opts BroadcastOptions) (BroadcastReport, error) {
	var rep BroadcastReport
	if len(g) == 0 {
		return rep, fmt.Errorf("core: empty broadcast group")
	}
	start := time.Now()
	targets := make([]pipeline.Target, len(g))
	for i, cf := range g {
		targets[i] = cf
	}

	var prepareEnd, gateStart time.Time
	res, err := g[0].cp.Scheduler().Inject(pipeline.Request{
		Ext:     e,
		Hook:    opts.Hook,
		Targets: targets,
		Atomic:  true,
		BeforePublish: func() error {
			prepareEnd = time.Now()
			if !opts.BBU {
				return nil
			}
			// Raise every gate, then drain: wait for every request already
			// inside the bubble to complete, so nothing straddles old and
			// new logic.
			errs := make([]error, len(g))
			var wg sync.WaitGroup
			for i, cf := range g {
				wg.Add(1)
				go func(i int, cf *CodeFlow) {
					defer wg.Done()
					errs[i] = cf.SetBufferGate(opts.Hook, true)
				}(i, cf)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					// Roll gates back before failing.
					for _, cf := range g {
						cf.SetBufferGate(opts.Hook, false)
					}
					return fmt.Errorf("core: broadcast gate raise: %w", err)
				}
			}
			gateStart = time.Now()
			timeout := opts.DrainTimeout
			if timeout == 0 {
				timeout = 2 * time.Second
			}
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			if err := g.drainInflight(ctx, opts.Hook); err != nil {
				for _, cf := range g {
					cf.SetBufferGate(opts.Hook, false)
				}
				return fmt.Errorf("core: broadcast drain: %w", err)
			}
			return nil
		},
		AfterPublish: func() {
			if opts.BBU {
				for _, cf := range g {
					cf.SetBufferGate(opts.Hook, false)
				}
				rep.GateHeld = time.Since(gateStart)
			}
		},
	})
	if err != nil {
		return rep, fmt.Errorf("core: broadcast: %w", err)
	}
	failed := reportedFailure(res.Outcomes)
	if !res.Published {
		// Atomic abort: a stage (or the barrier) failed; no node changed.
		if failed != nil {
			return rep, fmt.Errorf("core: broadcast aborted: node %s: %w", failed.Node, failed.Err)
		}
		return rep, fmt.Errorf("core: broadcast aborted")
	}
	rep.Prepare = prepareEnd.Sub(start)
	rep.Commit = time.Since(prepareEnd)
	rep.Total = time.Since(start)
	for _, o := range res.Outcomes {
		rep.Versions = append(rep.Versions, o.Version)
	}
	if failed != nil {
		return rep, fmt.Errorf("core: broadcast commit on node %s: %w", failed.Node, failed.Err)
	}
	return rep, nil
}

// reportedFailure picks the failed outcome a broadcast reports: a fenced
// one over any other, since it means this controller is deposed and every
// node it touches will refuse it, else the first. Nil if none failed.
func reportedFailure(outs []pipeline.Outcome) *pipeline.Outcome {
	var first *pipeline.Outcome
	for i := range outs {
		o := &outs[i]
		if o.Err == nil {
			continue
		}
		if errors.Is(o.Err, ErrFenced) {
			return o
		}
		if first == nil {
			first = o
		}
	}
	return first
}

// drainInflight polls every node's in-flight counter until all are zero.
// Nodes drain in parallel under one ctx — the gate-held window tracks the
// slowest node, not the sum of a sequential sweep — and reads issue on the
// context-aware verb path so the drain deadline cancels an in-flight poll
// instead of waiting out its verb timeout.
func (g Group) drainInflight(ctx context.Context, hook string) error {
	errs := make([]error, len(g))
	var wg sync.WaitGroup
	for i, cf := range g {
		hookAddr, err := cf.HookAddr(hook)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(i int, cf *CodeFlow, hookAddr uint64) {
			defer wg.Done()
			rem := cf.remote(ctx)
			for {
				inflight, err := rem.ReadMem(hookAddr+node.HookOffInflight, 8)
				if err != nil {
					errs[i] = err
					return
				}
				if inflight == 0 {
					return
				}
				select {
				case <-ctx.Done():
					errs[i] = fmt.Errorf("%d requests still in flight on node %#x: %w", inflight, cf.NodeID, ctx.Err())
					return
				case <-time.After(5 * time.Microsecond):
				}
			}
		}(i, cf, hookAddr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
