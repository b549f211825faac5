package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"rdx/internal/artifact"
	"rdx/internal/ext"
	"rdx/internal/native"
	"rdx/internal/node"
	"rdx/internal/pipeline"
	"rdx/internal/telemetry"
)

// NodeKey implements pipeline.Target: NodeID in hex, formatted once when
// the handle is created.
func (cf *CodeFlow) NodeKey() string { return cf.nodeKey }

// Stage implements pipeline.Target by staging without publishing.
func (cf *CodeFlow) Stage(ctx context.Context, e *ext.Extension, hook string) (pipeline.Staged, error) {
	return cf.StageExtension(ctx, e, hook)
}

// StagedDeploy is a prepared-but-unpublished deployment on one node: the
// blob is fully written (in full, or as a page delta into a claimed
// standby) and recorded on the hook's staged slot, but no dispatch pointer
// references it yet. Publish is the commit-only half. DeployProg and the
// resident fast path commit through one too.
type StagedDeploy struct {
	cf       *CodeFlow
	hook     string
	name     string
	digest   string
	hookAddr uint64
	blob     uint64
	version  uint64
	slot     *slotImage // nil for a commit-only (resident) deploy
	link     time.Duration
	write    time.Duration
	inDoubt  bool // a publish left the blob in doubt (cf.inDoubt)
}

// StageExtension runs everything except publication for one node: JIT (via
// the artifact store), state setup, linking, remote allocation, then ONE
// OpBatch chain carrying the blob bytes plus the staged-record write,
// terminated by a single doorbell WriteImm — the coalesced-doorbell
// injection path. When the hook has a standby blob of known contents (the
// previously displaced version), the stage diffs the new image against it
// at page granularity and scatter-writes only the changed runs into that
// blob — delta injection. The delta never targets the dispatched blob, so
// a connection killed mid-delta cannot tear the live version; if the delta
// exceeds deltaMaxRatio of the full image it degrades to a full write of
// the claimed slot. Every remote verb issues under ctx, so the whole
// staging sequence shares one deadline and (when ctx carries one) one
// trace ID.
func (cf *CodeFlow) StageExtension(ctx context.Context, e *ext.Extension, hook string) (*StagedDeploy, error) {
	rem := cf.remote(ctx)
	hookAddr, err := cf.HookAddr(hook)
	if err != nil {
		return nil, err
	}
	// The scheduler path (Broadcast, multi-node shard jobs) passes the same
	// policy gate as InjectExtension, per node, before any verb.
	if err := cf.authorize(e, hook); err != nil {
		return nil, err
	}
	cf.cp.audit(cf.NodeID, "stage", hook, e.Name())
	linkStart := time.Now()
	master, err := cf.cp.compiled(e, cf.Arch)
	if err != nil {
		return nil, err
	}
	extra := map[string]uint64{}
	params := DeployParams{Kind: uint8(e.Kind), Digest: e.Digest()}
	if err := cf.setupState(rem, e, extra, &params); err != nil {
		return nil, err
	}
	// The stage's one copy of the code: the read-only master's bytes go
	// straight into the blob image (header ‖ code) and are linked there.
	payload := make([]byte, node.BlobHdrSize+len(master.Code))
	code := payload[node.BlobHdrSize:]
	copy(code, master.Code)
	if err := cf.LinkCode(&native.Binary{Code: code, Relocs: master.Relocs}, extra); err != nil {
		return nil, err
	}
	version, err := cf.nextVersion(rem)
	if err != nil {
		return nil, err
	}
	link := time.Since(linkStart)

	writeStart := time.Now()
	copy(payload, blobHeader(master.Arch, params, version, len(code)))
	sd := &StagedDeploy{
		cf: cf, hook: hook, name: e.Name(), digest: e.Digest(),
		hookAddr: hookAddr, version: version, link: link,
	}
	slot, claimed, err := cf.reserve(rem, hook, len(payload))
	if err != nil {
		return nil, err
	}
	if claimed {
		err = cf.stageIntoSlot(ctx, rem, sd, slot, payload)
	} else {
		err = cf.stageFull(rem, sd, slot, payload)
	}
	if err != nil {
		cf.release(slot.blob)
		return nil, err
	}
	sd.blob, sd.slot = slot.blob, slot
	sd.write = time.Since(writeStart)
	cf.recordCodeHash(sd.blob, code)
	if j := cf.cp.journal(); j != nil {
		j.JournalStage(cf.NodeKey(), hook, sd.name, sd.digest, sd.version, sd.blob)
	}
	return sd, nil
}

// deltaMaxRatio is the fallback-to-full threshold: a delta whose bytes
// exceed this fraction of the full image is not worth the scatter chain, so
// the stage writes the full image instead.
const deltaMaxRatio = 0.5

// stageIntoSlot writes payload into a claimed standby blob, as a scatter
// chain of changed-page runs when the delta pays for itself, else as a
// full rewrite. The slot's shadow image is nil while writes are in flight:
// a transport failure partway leaves the slot marked torn, so a later
// claim falls back to a full rewrite instead of trusting stale bytes.
func (cf *CodeFlow) stageIntoSlot(ctx context.Context, rem *RemoteMemory, sd *StagedDeploy, slot *slotImage, payload []byte) error {
	cp := cf.cp
	d := artifact.Compute(slot.image, payload, artifact.DefaultPageSize)
	if d.Ratio() > deltaMaxRatio {
		// The diff wouldn't pay for itself (or the slot is torn): full
		// rewrite of the claimed blob, no fresh allocation needed.
		cp.Registry.Counter("artifact.delta.fallback").Inc()
		return cf.stageFull(rem, sd, slot, payload)
	}
	cp.Registry.Counter("artifact.delta.count").Inc()
	deltaStart := time.Now()
	writes := make([]BatchWrite, 0, len(d.Runs)+1)
	for _, run := range d.Runs {
		writes = append(writes, BatchWrite{Addr: slot.blob + uint64(run.Off), Data: run.Data})
	}
	var stagedRec [8]byte
	binary.LittleEndian.PutUint64(stagedRec[:], slot.blob)
	writes = append(writes, BatchWrite{
		Addr: sd.hookAddr + node.HookOffStaged, Data: stagedRec[:],
		Imm: node.DoorbellCCInvalidate, HasImm: true,
	})
	slot.image = nil
	err := rem.WriteBatch(writes)
	cp.Tracer.Span(telemetry.TraceIDFrom(ctx), "pipeline", "delta",
		cf.NodeKey(), deltaStart, d.Bytes(), err)
	if err != nil {
		return err
	}
	slot.image = payload
	cp.Registry.Counter("artifact.delta.bytes_written").Add(uint64(d.Bytes()))
	cp.Registry.Counter("artifact.delta.bytes_saved").Add(uint64(len(payload) - d.Bytes()))
	return nil
}

// stageFull writes the complete image plus the staged record as one chain
// into slot's blob (freshly allocated or a claimed standby).
func (cf *CodeFlow) stageFull(rem *RemoteMemory, sd *StagedDeploy, slot *slotImage, payload []byte) error {
	var stagedRec [8]byte
	binary.LittleEndian.PutUint64(stagedRec[:], slot.blob)
	slot.image = nil
	// Blob payload and the crash-visible staged record travel as one chain;
	// the trailing immediate exposes the staged slot to the node's CPU cache
	// without a second doorbell verb.
	if err := rem.WriteBatch([]BatchWrite{
		{Addr: slot.blob, Data: payload},
		{Addr: sd.hookAddr + node.HookOffStaged, Data: stagedRec[:], Imm: node.DoorbellCCInvalidate, HasImm: true},
	}); err != nil {
		return err
	}
	slot.image = payload
	return nil
}

// Publish implements pipeline.Staged: the version write plus the flip,
// issued under ctx. On success the slot bookkeeping flips: the published
// blob becomes the hook's active, the displaced active becomes the standby
// (the next delta target), and the control plane's deployed-version map
// records the new version. A failure leaves the blob pending, so a retry
// may still publish it; a caller that gives up calls Abort. A failure
// after the CAS was posted leaves the blob in doubt (it may be dispatched);
// once a later flip on the hook lands, that flip releases the blob, which
// another stage may then reuse, and Publish refuses to dispatch it again.
func (s *StagedDeploy) Publish(ctx context.Context) error {
	s.cf.pubMu.Lock()
	defer s.cf.pubMu.Unlock()
	return s.publish(s.cf.remote(ctx), s.cf.cp.checkFence)
}

// publish is Publish behind fence on rem, with pubMu held: the one commit
// of a staged, a cold (DeployProg) and a resident (commit-only, nil slot)
// deploy. The flip and its bookkeeping happen under one pubMu hold, so
// landed flips are recorded in the order they landed.
func (s *StagedDeploy) publish(rem *RemoteMemory, fence func() error) error {
	cf := s.cf
	if v, ok := cf.inDoubt[s.blob][s.hookAddr]; s.inDoubt && (!ok || v != s.version) {
		return fmt.Errorf("core: publish of %q on %q: a later publish on the hook released its blob", s.name, s.hook)
	}
	if err := cf.flip(rem, fence, s.hookAddr, s.blob, s.version); err != nil {
		_, s.inDoubt = cf.inDoubt[s.blob][s.hookAddr]
		return fmt.Errorf("core: publish of %q on %q: %w", s.name, s.hook, err)
	}
	cf.installPublished(s.hook, s.slot, s.deployed())
	return nil
}

// deployed is the history entry a landed publish records.
func (s *StagedDeploy) deployed() Deployed {
	return Deployed{Blob: s.blob, Version: s.version, Name: s.name, Digest: s.digest}
}

// Abort implements pipeline.Staged: the scheduler calls it once for every
// staged deploy it does not publish, failed publishes included. The blob
// leaves pending, so a later sweep may reuse its space, unless it is in
// doubt: then it stays pending until a later flip on the hook lands. The
// deploy must not be published afterwards.
func (s *StagedDeploy) Abort() {
	if !s.inDoubt {
		s.cf.release(s.blob)
	}
}

// Version implements pipeline.Staged.
func (s *StagedDeploy) Version() uint64 { return s.version }

// LinkDuration implements pipeline.Staged.
func (s *StagedDeploy) LinkDuration() time.Duration { return s.link }

// WriteDuration implements pipeline.Staged.
func (s *StagedDeploy) WriteDuration() time.Duration { return s.write }

var (
	_ pipeline.Target = (*CodeFlow)(nil)
	_ pipeline.Staged = (*StagedDeploy)(nil)
)
