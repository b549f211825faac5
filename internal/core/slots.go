package core

import "sync"

// slotImage is the control plane's shadow of one blob in a node's code
// region: its address, allocated capacity and the exact bytes last written
// there. image == nil means the contents are unknown (a write into the slot
// failed partway), which naturally disables delta reuse: a delta computed
// against a nil base marks every page dirty and falls back to a full
// rewrite.
type slotImage struct {
	blob  uint64
	cap   uint64 // allocated bytes, 8-aligned; 0 when unknown
	image []byte // bytes on the node, nil if torn/unknown
}

// hookSlots is per-hook double buffering: active is the blob the hook's
// dispatch pointer references, standby is the previous active — dead code
// with known contents, the ideal delta target. A delta never writes into
// the active blob, so a connection killed mid-delta can only tear the
// standby: the dispatched version stays byte-exact and the next successful
// stage rewrites the standby in full.
type hookSlots struct {
	active  *slotImage
	standby *slotImage
}

// reserve picks a stage's blob — the hook's standby when claimStandby can
// take it, else fresh or carved space — with at most one fence check for
// both. Either way the blob is pending on return.
func (cf *CodeFlow) reserve(rem *RemoteMemory, hook string, need int) (slot *slotImage, claimed bool, err error) {
	sz := blobCap(need)
	fence := sync.OnceValue(cf.cp.checkFence)
	cf.pubMu.Lock()
	s := cf.claimStandby(hook, sz, fence)
	cf.pubMu.Unlock()
	if s != nil {
		return s, true, nil
	}
	blob, err := cf.allocCode(rem, sz, fence)
	if err != nil {
		return nil, false, err
	}
	return &slotImage{blob: blob, cap: sz}, false, nil
}

// claimStandby removes and returns hook's standby slot for reuse as a
// delta (or full-rewrite) target, if one exists with at least need bytes
// and no hook on this node currently dispatches its blob — a blob
// published on hook A can also be live on hook B via the resident fast
// path, and overwriting it there would tear B. Claiming tombstones the
// blob's history entries, so neither rollback nor the resident fast path
// re-dispatches overwritten bytes, and marks it pending. Returns nil when
// no reusable slot exists; the caller then allocates. Caller holds pubMu,
// the lock every publish path takes: either a commit-only dispatch (resident
// fast path, rollback) looks the blob up after this claim tombstoned it —
// and misses — or it CASes first and the dispatch check below sees the blob
// live and skips it. A blob in doubt is skipped too: its CAS may have
// landed without the bookkeeping.
func (cf *CodeFlow) claimStandby(hook string, need uint64, fence func() error) *slotImage {
	// A fenced (deposed) controller must not scatter-write into a standby:
	// the new leader may have re-published that blob, making it live again.
	if fence() != nil {
		return nil
	}
	cf.mu.Lock()
	hs := cf.slots[hook]
	if hs == nil || hs.standby == nil {
		cf.mu.Unlock()
		return nil
	}
	s := hs.standby
	live := len(cf.inDoubt[s.blob]) > 0
	for _, hist := range cf.history { // a hook dispatches its history's top
		live = live || len(hist) > 0 && hist[len(hist)-1].Blob == s.blob
	}
	if live {
		cf.mu.Unlock()
		return nil // leave it as standby and try later
	}
	hs.standby = nil
	if s.cap < need {
		// Too small for the new image: drop it so the next publish
		// installs a bigger standby.
		cf.mu.Unlock()
		return nil
	}
	cf.reclaimLocked(s.blob)
	cf.pending[s.blob] = s.cap
	cf.mu.Unlock()
	if j := cf.cp.journal(); j != nil {
		j.JournalClaim(cf.NodeKey(), s.blob)
	}
	return s
}

// installPublished records one successful publish: history, the control
// plane's deployed-version map and the journal entry.
// A freshly written slot also leaves pending and installs as the hook's
// active — the displaced active becomes the new standby; a nil slot (the
// resident fast path re-targeting an already written blob) swaps the
// slots with switchDispatch instead.
func (cf *CodeFlow) installPublished(hook string, slot *slotImage, d Deployed) {
	cf.mu.Lock()
	cf.history[hook] = PushDeployed(cf.history[hook], d)
	if slot == nil {
		cf.switchDispatch(hook, d.Blob)
	} else {
		delete(cf.pending, slot.blob)
		hs := cf.slots[hook]
		if hs == nil {
			hs = &hookSlots{}
			cf.slots[hook] = hs
		}
		if hs.active != nil && hs.active.blob != slot.blob {
			hs.standby = hs.active
		}
		hs.active = slot
	}
	cf.mu.Unlock()
	cf.cp.recordDeployed(cf.NodeKey(), hook,
		DeployedVersion{Digest: d.Digest, Version: d.Version, Blob: d.Blob})
	if j := cf.cp.journal(); j != nil {
		j.JournalPublish(cf.NodeKey(), hook, d)
	}
}

// switchDispatch records a commit-only pointer flip (resident fast path,
// rollback) that re-targets hook to an already-written blob: if the blob is
// this hook's standby the buffers swap so the displaced active becomes
// delta-reusable. Caller holds cf.mu.
func (cf *CodeFlow) switchDispatch(hook string, blob uint64) {
	hs := cf.slots[hook]
	if hs == nil {
		return
	}
	if hs.active != nil && hs.active.blob == blob {
		return
	}
	if hs.standby != nil && hs.standby.blob == blob {
		hs.active, hs.standby = hs.standby, hs.active
		return
	}
	// Dispatch moved to a blob this hook's slots don't shadow (another
	// hook's blob via the resident fast path): the displaced active is now
	// dead code with known contents, so keep it reachable as a delta target.
	if hs.standby == nil {
		hs.standby = hs.active
	}
	hs.active = nil
}
