package core

import (
	"errors"
	"sync"

	"rdx/internal/artifact"
	"rdx/internal/native"
	"rdx/internal/pipeline"
	"rdx/internal/rdma"
	"rdx/internal/telemetry"
)

// ErrFenced reports that this control plane no longer holds the leadership
// lease — a standby bumped the fencing epoch — so publish and rollback
// transactions must not flip any hook pointer. It is permanent for this
// controller instance: re-driving the operation cannot succeed until a new
// lease is acquired, so the scheduler does not retry it and surfaces it
// instead of spinning.
var ErrFenced = errors.New("core: control plane fenced (leadership lease lost)")

// FenceCheck verifies that the control plane may still act as leader. It is
// consulted under pubMu inside CodeFlow.flip, immediately before every
// dispatch CAS, and before a stage claims a standby blob or an allocation
// hands out carved, reused code-region space. A stage's claim and carve share one
// check, and so do DeployProg's carve and flip, under one pubMu hold that
// spans only the blob's OpBatch between them: the check narrows the window
// between deposal and a stale pointer flip or overwrite to a few in-flight
// verbs.
// Implementations should return an error wrapping ErrFenced when the lease
// is lost, and fail closed (non-nil) when leadership cannot be confirmed.
type FenceCheck func() error

// JournalSink receives every control-plane intent and outcome as it
// happens: validations and compilations by artifact digest, stages,
// publishes, rollbacks, and blob claims — a standby claimed as a delta
// target, or a soft-live blob carved under pressure.
// internal/controlha implements it with an append-only checksummed journal
// replicated to standbys; replaying the entries reconstructs the
// deployed-version map and per-hook rollback stacks on a fresh control
// plane. Sinks must not block on the fabric for long — they are called
// with no CodeFlow locks held, but on the publish path. A replicating sink
// may return from JournalValidate and JournalCompile before their records
// are remote — replay ignores them — as long as they are remote no later
// than the next call that does wait: controlha carries them aboard the
// next publish's (or stage's, claim's, rollback's) flight. Every other
// call returns only once its record is remote. A sink that is also a
// Journaler is driven through Journal instead (see SetJournal); controlha's
// Journal implements each method as one Journal call, followed by a wait
// on its ack for all but validate and compile. The interface stays only
// for the benchmark's traced sink, which implements no Journal.
type JournalSink interface {
	JournalValidate(digest string)
	JournalCompile(digest string, arch native.Arch)
	JournalStage(node, hook, name, digest string, version, blob uint64)
	JournalPublish(node, hook string, d Deployed)
	JournalRollback(node, hook string, to Deployed)
	JournalClaim(node string, blob uint64)
	// JournalReclaim and JournalHandoff have no caller left in this module:
	// the code region no longer wraps, the handoff entry went with live
	// rebalancing, and *controlha.Journal implements both as no-ops. They
	// stay on the interface only because the benchmark's traced sink
	// forwards them, and go with the next change to the benchmark.
	JournalReclaim(node string, epoch uint64)
	JournalHandoff(ringEpoch uint64) error
}

// EntryKind is what a JournalEntry records.
type EntryKind uint8

// The entry kinds, one per JournalSink method that journals, numbered as
// controlha's journal format numbers its entry types.
const (
	EntryValidate EntryKind = iota + 1 // validator ran for Digest
	EntryCompile                       // JIT ran for (Digest, Arch)
	EntryStage                         // blob staged (written, not dispatched) on (Node, Hook)
	EntryPublish                       // dispatch CAS landed on (Node, Hook)
	EntryRollback                      // hook reverted to a prior version
	EntryClaim                         // Blob on Node claimed for reuse: its bytes are gone
)

// JournalEntry is one control-plane intent or outcome, as a Journaler
// records it. Fields a kind does not use are zero.
type JournalEntry struct {
	Kind EntryKind
	Node string // NodeKey
	Hook string
	Deployed
	Arch native.Arch
	// Batch marks an entry of a fleet job, whose caller waits once for
	// many entries: with nothing else journaling, it waits for that wait
	// instead of starting a flight, so the job's entries fly together. A
	// caller that waits on its ack at once leaves it unset.
	Batch bool
}

// Journaler journals an entry without waiting for it to be durable: the
// returned Ack says when it is. Acks complete in journal order, so a
// waited Ack means every entry journaled before it is durable too.
type Journaler interface {
	Journal(e JournalEntry) Ack
}

// AckSource is the journal an Ack waits on: WaitSeq returns once the entry
// numbered seq is durable, with the error that kept it from being so.
type AckSource interface {
	WaitSeq(seq uint64) error
}

// Ack is one journaled entry's durability handle: the journal and the
// entry's sequence number, or the error that refused the entry. It is a
// value, so handing one back allocates nothing. The zero Ack is done.
type Ack struct {
	src AckSource
	seq uint64
	err error
}

// NewAck returns the ack of entry seq of src, or, with err set, of an entry
// src refused.
func NewAck(src AckSource, seq uint64, err error) Ack {
	return Ack{src: src, seq: seq, err: err}
}

// Wait returns once the entry is durable, or with the error that kept it
// from being so.
func (a Ack) Wait() error {
	if a.err != nil || a.src == nil {
		return a.err
	}
	return a.src.WaitSeq(a.seq)
}

// sinkJournaler drives an eight-method JournalSink as a Journaler: each
// entry is the sink's matching call, which blocks as the sink does, so the
// returned Ack is already done.
type sinkJournaler struct{ sink JournalSink }

func (s sinkJournaler) Journal(e JournalEntry) Ack {
	switch e.Kind {
	case EntryValidate:
		s.sink.JournalValidate(e.Digest)
	case EntryCompile:
		s.sink.JournalCompile(e.Digest, e.Arch)
	case EntryStage:
		s.sink.JournalStage(e.Node, e.Hook, e.Name, e.Digest, e.Version, e.Blob)
	case EntryPublish:
		s.sink.JournalPublish(e.Node, e.Hook, e.Deployed)
	case EntryRollback:
		s.sink.JournalRollback(e.Node, e.Hook, e.Deployed)
	case EntryClaim:
		s.sink.JournalClaim(e.Node, e.Blob)
	}
	return Ack{}
}

// haState carries the control plane's replication hooks. All are nil on a
// standalone controller, making every check a no-op.
type haState struct {
	mu    sync.RWMutex
	fence FenceCheck
	sink  JournalSink
	jr    Journaler // sink itself when it is a Journaler, else sinkJournaler over it
}

// SetFence installs (or clears, with nil) the leadership fence consulted
// before every dispatch CAS.
func (cp *ControlPlane) SetFence(f FenceCheck) {
	cp.ha.mu.Lock()
	cp.ha.fence = f
	cp.ha.mu.Unlock()
}

// SetJournal installs (or clears, with nil) the deployment journal sink.
// A sink that is also a Journaler is journaled through Journal, so a fleet
// job can wait once for many entries; any other sink sees exactly its
// eight methods' calls.
func (cp *ControlPlane) SetJournal(j JournalSink) {
	var jr Journaler
	if j != nil {
		var ok bool
		if jr, ok = j.(Journaler); !ok {
			jr = sinkJournaler{j}
		}
	}
	cp.ha.mu.Lock()
	cp.ha.sink, cp.ha.jr = j, jr
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

// journal journals e through the installed sink and returns its ack,
// which is done when no sink is installed.
func (cp *ControlPlane) journal(e JournalEntry) Ack {
	cp.ha.mu.RLock()
	jr := cp.ha.jr
	cp.ha.mu.RUnlock()
	if jr == nil {
		return Ack{}
	}
	return jr.Journal(e)
}

// Journal exposes the installed sink (nil on a standalone controller). No
// caller in this module needs it; the benchmark pins it, wrapping the sink
// in its tracer.
func (cp *ControlPlane) Journal() JournalSink {
	cp.ha.mu.RLock()
	defer cp.ha.mu.RUnlock()
	return cp.ha.sink
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
	tracer := telemetry.NewTraceRecorder(0)
	return &ControlPlane{
		artifacts: arts,
		versions:  map[verKey]DeployedVersion{},
		Registry:  reg,
		Tracer:    tracer,
		wire:      rdma.NewWireMetrics(reg, wirePrefix),
		sched:     pipeline.New(reg, tracer),
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

// RestoreDeployed installs one replayed deployed-version entry: journal
// replay applies entries in flip order, so the replayed value is what the
// node dispatched.
func (cp *ControlPlane) RestoreDeployed(nodeKey, hook string, dv DeployedVersion) {
	cp.recordDeployed(nodeKey, hook, dv)
}

// RestoreHistory installs a replayed rollback stack on a re-attached
// CodeFlow; its live entries are the hook's resident set from then on. The
// hook's slot shadow is rebuilt from the stack's top (when live) with
// unknown contents and size (nil image — the torn marker), so the first
// post-failover delta stage conservatively falls back to a fresh allocation
// instead of trusting bytes this controller never wrote. Another term may
// have reused any space, so the allocator's free list is dropped too.
func (cf *CodeFlow) RestoreHistory(hook string, stack []Deployed) {
	cf.pubMu.Lock()
	defer cf.pubMu.Unlock()
	cf.free = nil
	cf.mu.Lock()
	defer cf.mu.Unlock()
	cf.history[hook] = append([]Deployed(nil), stack...)
	delete(cf.slots, hook)
	if n := len(stack); n > 0 && !stack[n-1].Reclaimed {
		cf.slots[hook] = &hookSlots{active: &slotImage{blob: stack[n-1].Blob}}
	}
}
