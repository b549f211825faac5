package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"rdx/internal/artifact"
	"rdx/internal/ext"
	"rdx/internal/native"
	"rdx/internal/node"
	"rdx/internal/pipeline"
	"rdx/internal/telemetry"
)

// NodeKey implements pipeline.Target.
func (cf *CodeFlow) NodeKey() string { return fmt.Sprintf("%#x", cf.NodeID) }

// Stage implements pipeline.Target by staging without publishing.
func (cf *CodeFlow) Stage(ctx context.Context, e *ext.Extension, hook string) (pipeline.Staged, error) {
	return cf.StageExtension(ctx, e, hook)
}

// StagedDeploy is a prepared-but-unpublished deployment on one node: the
// blob is fully written (in full, or as a page delta into a claimed
// standby) and recorded on the hook's staged slot, but no dispatch pointer
// references it yet. Publish is the commit-only half.
type StagedDeploy struct {
	cf       *CodeFlow
	hook     string
	name     string
	digest   string
	hookAddr uint64
	blob     uint64
	version  uint64
	slot     *slotImage
	delta    bool // staged as a page delta rather than a full image
	// epoch is the code-ring wrap epoch at claim/allocation time; the
	// write and publish steps re-check it (wrappedSince) so a wrap racing
	// the stage fails it retryably instead of touching reclaimed space.
	epoch uint64
	link  time.Duration
	write time.Duration
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
	linkStart := time.Now()
	bin, err := cf.JITCompileCode(e)
	if err != nil {
		return nil, err
	}
	extra := map[string]uint64{}
	params := DeployParams{Kind: uint8(e.Kind), Digest: e.Digest()}
	if err := cf.setupState(rem, e, extra, &params); err != nil {
		return nil, err
	}
	if err := cf.LinkCode(bin, extra); err != nil {
		return nil, err
	}
	version, err := cf.nextVersion(rem)
	if err != nil {
		return nil, err
	}
	link := time.Since(linkStart)

	writeStart := time.Now()
	hdr := node.EncodeBlobHeader(bin.Arch, node.BlobParams{
		Kind: params.Kind, Version: version, MemBase: params.MemBase, GlobBase: params.GlobBase,
	}, len(bin.Code))
	payload := append(hdr, bin.Code...)

	sd := &StagedDeploy{
		cf: cf, hook: hook, name: e.Name(), digest: e.Digest(),
		hookAddr: hookAddr, version: version, link: link,
	}
	slot, epoch := cf.claimStandby(hook, len(payload))
	sd.epoch = epoch
	if slot != nil {
		if err := cf.stageIntoSlot(ctx, rem, sd, slot, payload); err != nil {
			return nil, err
		}
	} else {
		blob, allocEpoch, err := cf.allocCode(rem, len(payload))
		if err != nil {
			return nil, err
		}
		sd.epoch = allocEpoch
		fresh := &slotImage{
			blob: blob, cap: (uint64(len(payload)) + 7) &^ 7,
			digest: e.Digest(), kind: params.Kind,
		}
		if err := cf.stageFull(rem, sd, fresh, payload); err != nil {
			return nil, err
		}
	}
	sd.slot.kind = params.Kind
	sd.write = time.Since(writeStart)

	codeSum := sha256.Sum256(bin.Code)
	cf.mu.Lock()
	cf.codeHashes[sd.blob] = hex.EncodeToString(codeSum[:])
	cf.mu.Unlock()
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
	// A ring wrap after the claim means fresh allocations may already
	// overlap the claimed blob: writing there could corrupt them. The
	// check narrows the race window; the post-write check below closes
	// this stage's publish path for wraps that land mid-flight.
	if cf.wrappedSince(sd.epoch) {
		return fmt.Errorf("core: delta stage of %q on %q: %w", sd.name, sd.hook, ErrRingWrapped)
	}
	d := artifact.Compute(slot.image, payload, artifact.DefaultPageSize)
	if d.Ratio() > deltaMaxRatio {
		// The diff wouldn't pay for itself (or the slot is torn): full
		// rewrite of the claimed blob, no fresh ring allocation needed.
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
	// The scatter was a remote round trip: if the ring wrapped under it,
	// the blob's range may since have been handed out again, so neither
	// the write nor the shadow image can be trusted. slot.image stays nil
	// (torn marker) and the stage fails retryably.
	if cf.wrappedSince(sd.epoch) {
		return fmt.Errorf("core: delta stage of %q on %q: %w", sd.name, sd.hook, ErrRingWrapped)
	}
	slot.image = payload
	slot.digest = sd.digest
	cp.Registry.Counter("artifact.delta.bytes_written").Add(uint64(d.Bytes()))
	cp.Registry.Counter("artifact.delta.bytes_saved").Add(uint64(len(payload) - d.Bytes()))
	sd.blob = slot.blob
	sd.slot = slot
	sd.delta = true
	return nil
}

// stageFull writes the complete image plus the staged record as one chain
// into slot's blob (freshly allocated or a claimed standby).
func (cf *CodeFlow) stageFull(rem *RemoteMemory, sd *StagedDeploy, slot *slotImage, payload []byte) error {
	if cf.wrappedSince(sd.epoch) {
		return fmt.Errorf("core: stage of %q on %q: %w", sd.name, sd.hook, ErrRingWrapped)
	}
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
	// As in stageIntoSlot: a wrap during the write invalidates the blob.
	if cf.wrappedSince(sd.epoch) {
		return fmt.Errorf("core: stage of %q on %q: %w", sd.name, sd.hook, ErrRingWrapped)
	}
	slot.image = payload
	slot.digest = sd.digest
	sd.blob = slot.blob
	sd.slot = slot
	return nil
}

// Publish implements pipeline.Staged: version write + dispatch CAS +
// cc_event, the commit-only transaction, issued under ctx. On success the
// slot bookkeeping flips: the published blob becomes the hook's active,
// the displaced active becomes the standby (the next delta target), and
// the control plane's deployed-version map records the new version.
func (s *StagedDeploy) Publish(ctx context.Context) error {
	cf := s.cf
	rem := cf.remote(ctx)
	// pubMu keeps the commit CAS and the shadow bookkeeping in the same
	// order across concurrent publishes (see CodeFlow.pubMu).
	cf.pubMu.Lock()
	defer cf.pubMu.Unlock()
	// A ring wrap since this stage claimed/allocated its blob may have
	// handed the address range to a fresh allocation: the CAS would point
	// the hook at someone else's (or garbage) code. Fail retryably — a
	// re-driven stage allocates post-wrap space.
	if cf.wrappedSince(s.epoch) {
		return fmt.Errorf("core: publish of %q on %q: %w", s.name, s.hook, ErrRingWrapped)
	}
	// Leadership fence: checked after the wrap guard and immediately before
	// the commit CAS, so a controller deposed mid-broadcast cannot flip the
	// hook pointer (ErrFenced is permanent — the scheduler won't retry it).
	if err := cf.cp.checkFence(); err != nil {
		return fmt.Errorf("core: publish of %q on %q: %w", s.name, s.hook, err)
	}
	if err := cf.txOn(rem,
		[]TxWrite{{Addr: s.hookAddr + node.HookOffVersion, Qword: s.version}},
		QwordSwap{Addr: s.hookAddr + node.HookOffDispatch, New: s.blob},
	); err != nil {
		return err
	}
	cf.ccEventOn(rem, s.hookAddr+node.HookOffDispatch)
	cf.installPublished(s.hook, s.slot,
		Deployed{Blob: s.blob, Version: s.version, Name: s.name, Digest: s.digest})
	return nil
}

// Version implements pipeline.Staged.
func (s *StagedDeploy) Version() uint64 { return s.version }

// LinkDuration implements pipeline.Staged.
func (s *StagedDeploy) LinkDuration() time.Duration { return s.link }

// WriteDuration implements pipeline.Staged.
func (s *StagedDeploy) WriteDuration() time.Duration { return s.write }

// Scheduler returns the control plane's injection scheduler, created on
// first use. Validation and compilation are wired to the registry, so a
// fleet-wide job validates once and JITs once per distinct architecture
// among the targets, regardless of fleet size.
func (cp *ControlPlane) Scheduler() *pipeline.Scheduler {
	cp.schedOnce.Do(func() {
		cp.sched = pipeline.New(pipeline.Config{
			Retries:  2,
			Registry: cp.Registry,
			Tracer:   cp.Tracer,
			// Reconnectable transport failures (QP death, verb timeouts,
			// lost atomic completions behind a ReconnQP) are retryable:
			// staging is re-driveable end to end.
			Transient: Retryable,
			Validate: func(e *ext.Extension) error {
				_, err := cp.ValidateCode(e)
				return err
			},
			Compile: func(e *ext.Extension, targets []pipeline.Target) error {
				seen := map[native.Arch]bool{}
				for _, t := range targets {
					cf, ok := t.(*CodeFlow)
					if !ok || seen[cf.Arch] {
						continue
					}
					seen[cf.Arch] = true
					if _, err := cp.JITCompileCode(e, cf.Arch); err != nil {
						return err
					}
				}
				return nil
			},
		})
	})
	return cp.sched
}

var (
	_ pipeline.Target = (*CodeFlow)(nil)
	_ pipeline.Staged = (*StagedDeploy)(nil)
)
