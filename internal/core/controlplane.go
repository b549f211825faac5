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
// node's CPUs participates in any of it.
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
	mu sync.Mutex

	// artifacts is the content-addressed store behind ValidateCode and
	// JITCompileCode: bounded LRUs of validation facts and compiled
	// binaries with cross-job single-flight, so any number of concurrent
	// jobs over one digest validate once and compile once per arch.
	artifacts *artifact.Cache

	// Stats counts registry effectiveness (ablation: disable the cache).
	Stats RegistryStats
	// DisableCache forces re-validation and re-compilation on every call
	// (the "no registry" ablation).
	DisableCache bool

	// DisableDelta forces full-image staging even when a standby blob could
	// absorb a page-granular delta (the "no delta" ablation).
	DisableDelta bool

	// versions tracks, per (node, hook), the digest/version/blob the
	// control plane most recently published there — the deployed-version
	// map that delta staging diffs against and the race tests assert
	// last-writer-wins on.
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

	// sched is the lazily created injection scheduler (see Scheduler).
	schedOnce sync.Once
	sched     *pipeline.Scheduler

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

// RegistryStats counts cache behavior.
type RegistryStats struct {
	ValidateHits   uint64
	ValidateMisses uint64
	CompileHits    uint64
	CompileMisses  uint64
}

// NewControlPlane creates an empty control plane.
func NewControlPlane() *ControlPlane {
	return NewControlPlaneLabeled(nil, nil, "")
}

// ValidateCode is rdx_validate_code: run the extension's validator on the
// control plane (not on any data-plane node), memoized by digest in the
// artifact store.
func (cp *ControlPlane) ValidateCode(e *ext.Extension) (ext.Info, error) {
	if cp.DisableCache {
		cp.mu.Lock()
		cp.Stats.ValidateMisses++
		cp.mu.Unlock()
		cp.artifacts.CountValidate()
		return e.Validate()
	}
	info, hit, err := cp.artifacts.Validate(e.Digest(), e.Validate)
	cp.mu.Lock()
	if hit {
		cp.Stats.ValidateHits++
	} else {
		cp.Stats.ValidateMisses++
	}
	cp.mu.Unlock()
	// Only actual validator runs are journaled: replaying a hit would make
	// the standby's replayed intent log diverge from the work done.
	if !hit && err == nil {
		if j := cp.journal(); j != nil {
			j.JournalValidate(e.Digest())
		}
	}
	return info, err
}

// JITCompileCode is rdx_JIT_compile_code: cross-architecture compilation on
// the control plane, producing an instrumented relocatable binary. Results
// live in the artifact store keyed by (digest, arch); callers receive
// clones because linking mutates code. Concurrent first-time compiles of
// one key are single-flight: one build, shared result.
func (cp *ControlPlane) JITCompileCode(e *ext.Extension, arch native.Arch) (*native.Binary, error) {
	if cp.DisableCache {
		cp.mu.Lock()
		cp.Stats.CompileMisses++
		cp.mu.Unlock()
		// Validation gates compilation, as in the kernel pipeline.
		if _, err := cp.ValidateCode(e); err != nil {
			return nil, err
		}
		cp.artifacts.CountCompile()
		return e.Compile(arch)
	}
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
	cp.mu.Lock()
	if hit {
		cp.Stats.CompileHits++
	} else {
		cp.Stats.CompileMisses++
	}
	cp.mu.Unlock()
	if !hit {
		if j := cp.journal(); j != nil {
			j.JournalCompile(e.Digest(), arch)
		}
	}
	return art.Binary(), nil
}

// compiledHit reports whether (digest, arch) is already resident, without
// touching recency or stats (Report.CacheHit classification).
func (cp *ControlPlane) compiledHit(digest string, arch native.Arch) bool {
	if cp.DisableCache {
		return false
	}
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

// recordDeployed updates the deployed-version map. Versions come from the
// node's epoch FETCH_ADD, so they totally order publishes per node; the
// guard makes concurrent publishes converge on the highest version —
// last-writer-wins by epoch, regardless of the order their recordings race
// in. force (rollback) overrides the guard: reverting to an older version
// is the caller's explicit intent.
func (cp *ControlPlane) recordDeployed(nodeKey, hook string, dv DeployedVersion, force bool) {
	cp.versMu.Lock()
	defer cp.versMu.Unlock()
	k := verKey{nodeKey, hook}
	if cur, ok := cp.versions[k]; ok && !force && cur.Version > dv.Version {
		return
	}
	cp.versions[k] = dv
}

// Precompile validates and compiles for every architecture in Targets,
// warming the registry (the "validate and compile each extension once,
// deploy anywhere on demand" workflow of §3.2).
func (cp *ControlPlane) Precompile(e *ext.Extension, targets ...native.Arch) error {
	if len(targets) == 0 {
		targets = []native.Arch{native.ArchX64, native.ArchA64}
	}
	for _, arch := range targets {
		if _, err := cp.JITCompileCode(e, arch); err != nil {
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
