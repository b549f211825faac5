// Package core implements RDX's contribution: the CodeFlow abstraction and
// its remote control plane (Table 1 of the paper).
//
// A ControlPlane is the centralized authority that replaces every per-node
// agent. It validates extension IR once, JIT-compiles it once per target
// architecture into relocatable binaries (cached by content digest), and
// deploys them to any number of data-plane nodes through one-sided RDMA
// verbs — allocation via remote FETCH_ADD on the node's bump pointers, code
// injection via WRITE, publication via CAS of the hook dispatch pointer,
// and cache exposure via WRITE_WITH_IMM doorbells. No code on the target
// node's CPUs participates in any of it. Once a node's code region is
// exhausted, the CodeFlow reuses only space no live blob occupies
// (region.go): a publish never overwrites code a hook may be running.
package core

import (
	"fmt"
	"sync"
	"time"

	"rdx/internal/artifact"
	"rdx/internal/clock"
	"rdx/internal/ext"
	"rdx/internal/native"
	"rdx/internal/pipeline"
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
)

// ControlPlane is the remote control plane: validation, the
// compile-once/deploy-anywhere registry, and CodeFlow creation.
type ControlPlane struct {
	mu sync.Mutex // guards policy and auditLog

	// artifacts is the content-addressed store behind ValidateCode and
	// JITCompileCode: bounded LRUs of validation facts and compiled
	// binaries with cross-job single-flight, so any number of concurrent
	// jobs over one digest validate once and compile once per arch.
	artifacts *artifact.Cache

	// versions tracks, per (node, hook), the digest/version/blob the
	// control plane's last landed flip there dispatched — the
	// deployed-version map the orchestrator's status step reads and journal
	// replay restores. Delta staging diffs against the hook's slot image,
	// not this map.
	versMu   sync.Mutex
	versions map[verKey]DeployedVersion

	policy   *AccessPolicy
	auditLog []auditEntry

	// Registry holds every instrument of this control plane's fleet: the
	// scheduler's "pipeline.*" series and the wire layer's "rdma.qp.*"
	// series, snapshot together by Registry.Snapshot / the rdxd /metrics
	// endpoint.
	Registry *telemetry.Registry
	// Tracer records per-trace spans across layers (pipeline stages, wire
	// verbs, endpoint service) in a bounded ring.
	Tracer *telemetry.TraceRecorder
	// wire is the fleet-shared wire instrument set handed to every QP the
	// control plane binds; instruments live in the Registry, so per-node QP
	// regenerations behind a ReconnQP keep accumulating into the same series.
	wire *rdma.WireMetrics

	// sched is the injection scheduler behind Group.Broadcast. It does no
	// validation or JIT of its own: every node's Stage asks the artifact
	// cache (compiled), which validates and compiles once per (digest,
	// architecture), so a fleet-wide job validates once and JITs once per
	// distinct architecture among the targets, regardless of fleet size.
	sched *pipeline.Scheduler

	// Clock is the timeline a leadership term attached to this control plane
	// runs on: lease TTL arithmetic and takeover latency (nil = clock.Real{}).
	// Set it before controlha.AttachLeader / TakeOver, which read it once;
	// the simulator binds its virtual clock here.
	Clock clock.Clock

	// ha holds the replication hooks (ha.go): the leadership fence checked
	// before every dispatch CAS and the deployment-journal sink. Both are
	// nil on a standalone controller.
	ha haState
}

type verKey struct {
	node string
	hook string
}

// DeployedVersion is one entry of the control plane's deployed-version map.
type DeployedVersion struct {
	Digest  string
	Version uint64
	Blob    uint64
}

// NewControlPlane creates an empty control plane.
func NewControlPlane() *ControlPlane {
	return NewControlPlaneLabeled(nil, nil, "")
}

// ValidateCode is rdx_validate_code: run the extension's validator on the
// control plane (not on any data-plane node), memoized by digest in the
// artifact store.
func (cp *ControlPlane) ValidateCode(e *ext.Extension) (ext.Info, error) {
	info, hit, err := cp.artifacts.Validate(e.Digest(), e.Validate)
	// Only actual validator runs are journaled: replaying a hit would make
	// the standby's replayed intent log diverge from the work done. Replay
	// ignores the entry, so nothing waits for it: it rides the next flight.
	if !hit && err == nil {
		cp.journal(JournalEntry{Kind: EntryValidate, Deployed: Deployed{Digest: e.Digest()}})
	}
	return info, err
}

// JITCompileCode is rdx_JIT_compile_code: cross-architecture compilation on
// the control plane, producing an instrumented relocatable binary. The
// caller receives a private clone, free to link.
func (cp *ControlPlane) JITCompileCode(e *ext.Extension, arch native.Arch) (*native.Binary, error) {
	bin, err := cp.compiled(e, arch)
	if err != nil {
		return nil, err
	}
	return bin.Clone(), nil
}

// compiled is JITCompileCode's body, shared with staging: it returns the
// artifact store's master binary for (digest, arch), which is read-only —
// a caller that links copies the code first. Concurrent first-time compiles
// of one key are single-flight: one build, shared result.
func (cp *ControlPlane) compiled(e *ext.Extension, arch native.Arch) (*native.Binary, error) {
	art, hit, err := cp.artifacts.GetOrBuild(
		artifact.Key{Digest: e.Digest(), Arch: arch},
		func() (ext.Info, *native.Binary, error) {
			info, err := cp.ValidateCode(e)
			if err != nil {
				return ext.Info{}, nil, err
			}
			bin, err := e.Compile(arch)
			return info, bin, err
		},
	)
	if err != nil {
		return nil, err
	}
	if !hit {
		cp.journal(JournalEntry{Kind: EntryCompile, Deployed: Deployed{Digest: e.Digest()}, Arch: arch})
	}
	return art.Master(), nil
}

// compiledHit reports whether (digest, arch) is already resident, without
// touching recency or counters (Report.CacheHit classification).
func (cp *ControlPlane) compiledHit(digest string, arch native.Arch) bool {
	_, ok := cp.artifacts.Peek(artifact.Key{Digest: digest, Arch: arch})
	return ok
}

// DeployedVersion returns what the control plane last published on (node,
// hook), if anything.
func (cp *ControlPlane) DeployedVersion(nodeKey, hook string) (DeployedVersion, bool) {
	cp.versMu.Lock()
	defer cp.versMu.Unlock()
	dv, ok := cp.versions[verKey{nodeKey, hook}]
	return dv, ok
}

// recordDeployed updates the deployed-version map. Every landed flip
// records its outcome under the node's pubMu, in the order the flips
// landed, so the map says what the node dispatches — a rollback or a
// publish of an older staged version included.
func (cp *ControlPlane) recordDeployed(nodeKey, hook string, dv DeployedVersion) {
	cp.versMu.Lock()
	cp.versions[verKey{nodeKey, hook}] = dv
	cp.versMu.Unlock()
}

// Precompile validates and compiles for every architecture in Targets,
// warming the registry (the "validate and compile each extension once,
// deploy anywhere on demand" workflow of §3.2).
func (cp *ControlPlane) Precompile(e *ext.Extension, targets ...native.Arch) error {
	if len(targets) == 0 {
		targets = []native.Arch{native.ArchX64, native.ArchA64}
	}
	for _, arch := range targets {
		if _, err := cp.compiled(e, arch); err != nil {
			return fmt.Errorf("core: precompile %v: %w", arch, err)
		}
	}
	return nil
}

// Report carries the per-stage timings of one RDX injection (Fig 4b's
// right-hand bars). Validate/Compile are zero on registry hits.
type Report struct {
	Validate time.Duration
	Compile  time.Duration
	Link     time.Duration
	Alloc    time.Duration // remote FETCH_ADD allocations + XState setup
	Write    time.Duration // one-sided code WRITE
	Commit   time.Duration // CAS pointer flip (+ cc_event)
	Total    time.Duration
	CacheHit bool
	Version  uint64
	Blob     uint64
}
