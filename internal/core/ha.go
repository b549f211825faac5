package core

import (
	"errors"
	"sync"

	"rdx/internal/artifact"
	"rdx/internal/native"
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
)

// ErrFenced reports that this control plane no longer holds the leadership
// lease — a standby bumped the fencing epoch — so publish and rollback
// transactions must not flip any hook pointer. Unlike ErrRingWrapped it is
// permanent for this controller instance: re-driving the operation cannot
// succeed until a new lease is acquired, so Retryable deliberately excludes
// it and the scheduler surfaces it instead of spinning.
var ErrFenced = errors.New("core: control plane fenced (leadership lease lost)")

// FenceCheck verifies that the control plane may still act as leader. It is
// consulted under pubMu immediately before every dispatch CAS (publish,
// resident fast path, rollback) and before a standby-blob claim, extending
// the wrapEpoch pattern: the check narrows the window between deposal and a
// stale pointer flip to a single in-flight verb. Implementations should
// return an error wrapping ErrFenced when the lease is lost, and fail
// closed (non-nil) when leadership cannot be confirmed.
type FenceCheck func() error

// JournalSink receives every control-plane intent and outcome as it
// happens: validations and compilations by artifact digest, stages,
// publishes, rollbacks, standby-blob claims, and ring-wrap reclamations.
// internal/controlha implements it with an append-only checksummed journal
// replicated to standbys; replaying the entries reconstructs the
// deployed-version map and per-hook rollback stacks on a fresh control
// plane. Sinks must not block on the fabric for long — they are called
// with no CodeFlow locks held, but on the publish path.
type JournalSink interface {
	JournalValidate(digest string)
	JournalCompile(digest string, arch native.Arch)
	JournalStage(node, hook, name, digest string, version, blob uint64)
	JournalPublish(node, hook string, d Deployed)
	JournalRollback(node, hook string, to Deployed)
	JournalClaim(node string, blob uint64)
	JournalReclaim(node string, wrapEpoch uint64)
	// JournalHandoff records a shard-rebalance barrier carrying the
	// departing ring epoch. Alone among the sinks it returns an error: the
	// marker gates state migration, so the implementation must confirm the
	// record is durable (replicated) — or report that this term was fenced
	// — before the rebalance proceeds.
	JournalHandoff(ringEpoch uint64) error
}

// haState carries the control plane's replication hooks. Both fields are
// nil on a standalone controller, making every check a no-op.
type haState struct {
	mu    sync.RWMutex
	fence FenceCheck
	sink  JournalSink
}

// SetFence installs (or clears, with nil) the leadership fence consulted
// before every dispatch CAS.
func (cp *ControlPlane) SetFence(f FenceCheck) {
	cp.ha.mu.Lock()
	cp.ha.fence = f
	cp.ha.mu.Unlock()
}

// SetJournal installs (or clears, with nil) the deployment journal sink.
func (cp *ControlPlane) SetJournal(j JournalSink) {
	cp.ha.mu.Lock()
	cp.ha.sink = j
	cp.ha.mu.Unlock()
}

// checkFence runs the installed fence, if any.
func (cp *ControlPlane) checkFence() error {
	cp.ha.mu.RLock()
	f := cp.ha.fence
	cp.ha.mu.RUnlock()
	if f == nil {
		return nil
	}
	return f()
}

// journal returns the installed sink, or nil.
func (cp *ControlPlane) journal() JournalSink {
	cp.ha.mu.RLock()
	defer cp.ha.mu.RUnlock()
	return cp.ha.sink
}

// Journal exposes the installed sink (nil on a standalone controller) —
// for callers that append records outside the publish path, like a
// rebalance receiver re-journaling the state it absorbed.
func (cp *ControlPlane) Journal() JournalSink { return cp.journal() }

// ErrNoJournal reports a handoff attempted on a control plane with no
// journal sink installed — there is no replicated record to migrate from.
var ErrNoJournal = errors.New("core: control plane has no journal sink")

// JournalHandoff appends the rebalance barrier through the installed sink,
// confirming durability. A control plane without a journal cannot hand its
// state off (typed ErrNoJournal).
func (cp *ControlPlane) JournalHandoff(ringEpoch uint64) error {
	j := cp.journal()
	if j == nil {
		return ErrNoJournal
	}
	return j.JournalHandoff(ringEpoch)
}

// NewControlPlaneLabeled creates a control plane sharing an existing
// artifact store and registry — the standby-controller constructor. Failover
// hands the leader's content-addressed cache to the successor, so re-driven
// jobs after takeover hit the same (digest, arch) artifacts and
// artifact.compile.invocations stays flat. Nil arguments fall back to fresh
// instances.
//
// wirePrefix names the wire series: the control plane's QP instruments
// register as "<wirePrefix>.*" instead of the default "rdma.qp.*". N
// control-plane shards sharing one registry (internal/shard) each pass a
// distinct prefix — "rdma.qp.shard3" and so on — so per-shard wire traffic
// stays distinguishable in one snapshot. An empty prefix keeps the default
// series name.
func NewControlPlaneLabeled(arts *artifact.Cache, reg *telemetry.Registry, wirePrefix string) *ControlPlane {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if arts == nil {
		arts = artifact.NewCache(artifact.Config{Registry: reg})
	}
	if wirePrefix == "" {
		wirePrefix = "rdma.qp"
	}
	return &ControlPlane{
		artifacts: arts,
		versions:  map[verKey]DeployedVersion{},
		Registry:  reg,
		Tracer:    telemetry.NewTraceRecorder(0),
		wire:      rdma.NewWireMetrics(reg, wirePrefix),
	}
}

// DeployedKey identifies one (node, hook) entry of the deployed-version
// map in exported form, for journal replay and failover verification.
type DeployedKey struct {
	Node string
	Hook string
}

// DeployedVersions snapshots the whole deployed-version map.
func (cp *ControlPlane) DeployedVersions() map[DeployedKey]DeployedVersion {
	cp.versMu.Lock()
	defer cp.versMu.Unlock()
	out := make(map[DeployedKey]DeployedVersion, len(cp.versions))
	for k, v := range cp.versions {
		out[DeployedKey{Node: k.node, Hook: k.hook}] = v
	}
	return out
}

// RestoreDeployed installs one deployed-version entry verbatim, bypassing
// the last-writer-wins guard: journal replay applies entries in commit
// order, so the replayed value is authoritative by construction.
func (cp *ControlPlane) RestoreDeployed(nodeKey, hook string, dv DeployedVersion) {
	cp.versMu.Lock()
	cp.versions[verKey{nodeKey, hook}] = dv
	cp.versMu.Unlock()
}

// RestoreHistory installs a replayed rollback stack on a re-attached
// CodeFlow. The stack's top (when live) also seeds the dispatch shadow and
// the resident fast-path index; the hook's slot shadow is rebuilt with
// unknown contents (nil image — the torn marker), so the first post-failover
// delta stage conservatively falls back to a full rewrite instead of
// diffing against bytes this controller never wrote.
func (cf *CodeFlow) RestoreHistory(hook string, stack []Deployed) {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	cf.history[hook] = append([]Deployed(nil), stack...)
	if len(stack) == 0 {
		return
	}
	top := stack[len(stack)-1]
	if top.Reclaimed {
		return
	}
	cf.dispatch[hook] = top.Blob
	if top.Digest != "" {
		cf.resident[top.Digest] = residentBlob{blob: top.Blob}
	}
	cf.slots[hook] = &hookSlots{active: &slotImage{
		blob:   top.Blob,
		digest: top.Digest,
	}}
}
