// Package agent implements the baseline the paper compares against: the
// conventional agent-based runtime-extension architecture, where every node
// runs local control software that receives extension IR from a controller,
// then validates, JIT-compiles, links, and loads it using the node's own
// CPU cores.
//
// The costs this package incurs are the paper's motivation:
//
//   - every injection burns node CPU on verification and compilation
//     (Fig 2a / Fig 4a/4b), and
//   - that work queues against data-path request handling on the same
//     bounded core pool, producing the contention collapse of Fig 2c and
//     the Redis overhead of §6.
//
// The agent intentionally shares the arena layout and loading primitives
// with the RDX path, so the ONLY difference between the two architectures
// is where control-path work executes — which is exactly the variable the
// paper's evaluation isolates.
package agent

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"rdx/internal/ebpf/maps"
	"rdx/internal/ext"
	"rdx/internal/native"
	"rdx/internal/node"
	"rdx/internal/wasm"
)

// Agent is the per-node control daemon of the baseline architecture.
type Agent struct {
	Node *node.Node

	version atomic.Uint64
}

// New attaches an agent to a node.
func New(n *node.Node) *Agent {
	return &Agent{Node: n}
}

// Report carries per-stage injection timings (Fig 4b's breakdown).
type Report struct {
	Verify  time.Duration
	Compile time.Duration
	Link    time.Duration
	Load    time.Duration // alloc + state setup + code write + pointer flip
	Total   time.Duration
	Version uint64
	Blob    uint64
}

// Inject performs the full agent-side pipeline for one extension on the
// node's cores, blocking until a core is free and the load completes. This
// is the millisecond-scale path the paper measures as the baseline.
func (a *Agent) Inject(ctx context.Context, hook string, e *ext.Extension) (Report, error) {
	var rep Report
	var pipelineErr error
	start := time.Now()
	err := a.Node.Cores.Run(ctx, func() {
		rep, pipelineErr = a.injectOnCore(hook, e)
	})
	if err != nil {
		return Report{}, err
	}
	if pipelineErr != nil {
		return Report{}, pipelineErr
	}
	rep.Total = time.Since(start)
	return rep, nil
}

// injectOnCore runs the pipeline stages; the caller holds a core.
func (a *Agent) injectOnCore(hook string, e *ext.Extension) (Report, error) {
	var rep Report
	n := a.Node

	// Stage 1: validate (the dominant CPU cost, per the paper's profiling).
	t0 := time.Now()
	if _, err := e.Validate(); err != nil {
		return rep, fmt.Errorf("agent %s: validate: %w", n.ID, err)
	}
	rep.Verify = time.Since(t0)

	// Stage 2: JIT-compile for the local architecture. The agent compiles
	// on EVERY injection — there is no cross-node artifact cache, which is
	// precisely the redundancy RDX's control-plane registry removes.
	t1 := time.Now()
	bin, err := e.Compile(n.Arch)
	if err != nil {
		return rep, fmt.Errorf("agent %s: compile: %w", n.ID, err)
	}
	rep.Compile = time.Since(t1)

	// Stage 3: link against the local context.
	t2 := time.Now()
	params := node.BlobParams{Kind: uint8(e.Kind)}
	extra := map[string]uint64{}
	if err := a.setupState(e, extra, &params); err != nil {
		return rep, err
	}
	if err := native.Link(bin, n.LocalResolver(extra)); err != nil {
		return rep, fmt.Errorf("agent %s: link: %w", n.ID, err)
	}
	rep.Link = time.Since(t2)

	// Stage 4: load (write blob, flip dispatch pointer).
	t3 := time.Now()
	version := a.version.Add(1)
	params.Version = version
	blob, err := n.WriteBlobLocal(bin, params)
	if err != nil {
		return rep, fmt.Errorf("agent %s: load: %w", n.ID, err)
	}
	if err := n.BindHookLocal(hook, blob, version); err != nil {
		return rep, fmt.Errorf("agent %s: bind: %w", n.ID, err)
	}
	rep.Load = time.Since(t3)
	rep.Version = version
	rep.Blob = uint64(blob)
	return rep, nil
}

// setupState allocates XState maps (eBPF) or memory/globals (Wasm) in the
// local scratchpad and records the link-time symbols.
func (a *Agent) setupState(e *ext.Extension, extra map[string]uint64, params *node.BlobParams) error {
	n := a.Node
	for _, spec := range e.MapSpecs() {
		addr, err := n.AllocScratch(int(maps.Size(spec)))
		if err != nil {
			return err
		}
		if _, err := maps.Create(n.Memory(), addr, spec); err != nil {
			return err
		}
		if _, err := n.RegisterMetaXState(addr); err != nil {
			return err
		}
		extra["map:"+spec.Name] = addr
	}
	memBytes, globals := e.WasmRegions()
	if memBytes > 0 {
		addr, err := n.AllocScratch(memBytes)
		if err != nil {
			return err
		}
		extra[wasm.SymMemory] = addr
		params.MemBase = addr
	}
	if globals > 0 {
		addr, err := n.AllocScratch(8 * globals)
		if err != nil {
			return err
		}
		for i, init := range e.WasmGlobalInits() {
			if err := n.Arena.WriteQword(addr+uint64(8*i), uint64(init)); err != nil {
				return err
			}
		}
		extra[wasm.SymGlobals] = addr
		params.GlobBase = addr
	}
	return nil
}

// PollState models the agent's periodic extension-state access (metrics
// scraping): it iterates every registered XState map on a node core. The
// paper attributes measurable data-path overhead to exactly this loop
// (25.3% on Redis).
func (a *Agent) PollState(ctx context.Context) (entries int, err error) {
	err = a.Node.Cores.Run(ctx, func() {
		addrs, e2 := a.Node.MetaXStateEntries()
		if e2 != nil {
			err = e2
			return
		}
		for _, addr := range addrs {
			v, e2 := maps.Attach(a.Node.Memory(), addr)
			if e2 != nil {
				continue // non-map XState (wasm memory): skip
			}
			v.Iterate(func(_, _ []byte) bool {
				entries++
				return true
			})
		}
	})
	return entries, err
}
