package core

// slotImage is the control plane's shadow of one blob in a node's code
// ring: its address, allocated capacity, the exact bytes last written
// there, and the digest/kind they belong to. image == nil means the
// contents are unknown (a write into the slot failed partway), which
// naturally disables delta reuse: a delta computed against a nil base
// marks every page dirty and falls back to a full rewrite.
type slotImage struct {
	blob   uint64
	cap    uint64 // allocated bytes, 8-aligned
	image  []byte // bytes on the node, nil if torn/unknown
	digest string
	kind   uint8
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

// claimStandby removes and returns hook's standby slot for reuse as a
// delta (or full-rewrite) target, if one exists with enough capacity and
// no hook on this node currently dispatches its blob — a blob published on
// hook A can also be live on hook B via the resident fast path, and
// overwriting it there would tear B. Claiming purges every local record
// (resident entries, code hashes) that could republish the blob as its old
// contents, and tombstones its history entries so rollback refuses them
// with a cause instead of re-dispatching overwritten bytes. Returns nil
// when no reusable slot exists; the caller then allocates fresh ring
// space. The second return is the wrap epoch observed at claim time: if
// cf.wrapEpoch has moved past it by publish time, the claimed address
// range may have been reclaimed by a post-wrap allocation (see
// wrappedSince).
func (cf *CodeFlow) claimStandby(hook string, need int) (*slotImage, uint64) {
	if cf.cp.DisableDelta {
		return nil, 0
	}
	// Lock order is pubMu then mu, matching every publish path. Holding
	// pubMu makes the claim atomic with respect to the commit-only
	// dispatches (resident fast path, rollback): either they re-read their
	// target blob under pubMu after this claim purged it — and miss — or
	// they CAS first and the dispatch check below sees the blob live and
	// skips it. Without this, a dispatcher could snapshot the blob's
	// address, lose the race to a claim, and flip the hook onto code the
	// delta scatter is concurrently rewriting.
	cf.pubMu.Lock()
	defer cf.pubMu.Unlock()
	cf.mu.Lock()
	defer cf.mu.Unlock()
	epoch := cf.wrapEpoch
	// A fenced (deposed) controller must not scatter-write into a standby:
	// the new leader may have re-published that blob, making it live again.
	// Returning no slot sends the stage to a fresh ring allocation — the
	// bump allocator never reuses space before a wrap, so the deposed
	// leader's writes land in memory nothing dispatches, and its publish is
	// refused by the fence check before the CAS anyway.
	if cf.cp.checkFence() != nil {
		return nil, epoch
	}
	hs := cf.slots[hook]
	if hs == nil || hs.standby == nil {
		return nil, epoch
	}
	s := hs.standby
	for _, live := range cf.dispatch {
		if live == s.blob {
			return nil, epoch // live elsewhere; leave it as standby and try later
		}
	}
	if s.cap < uint64(need) {
		// Too small for the new image: drop it so the next publish
		// installs a bigger standby.
		hs.standby = nil
		return nil, epoch
	}
	hs.standby = nil
	for dig, rb := range cf.resident {
		if rb.blob == s.blob {
			delete(cf.resident, dig)
		}
	}
	// Tombstone rather than delete: the claimed blob may sit in other
	// hooks' rollback stacks (published there via the resident fast path).
	// Keeping the entries, marked Reclaimed, preserves stack depth and
	// lets Rollback report why a version is gone instead of silently
	// skipping it or failing with "no prior version".
	reclaimed := 0
	for _, hist := range cf.history {
		for i := range hist {
			if hist[i].Blob == s.blob && !hist[i].Reclaimed {
				hist[i].Reclaimed = true
				reclaimed++
			}
		}
	}
	if reclaimed > 0 {
		cf.cp.Registry.Counter("core.history.reclaimed").Add(uint64(reclaimed))
	}
	delete(cf.codeHashes, s.blob)
	if j := cf.cp.journal(); j != nil {
		j.JournalClaim(cf.NodeKey(), s.blob)
	}
	return s, epoch
}

// installPublished records one successful publish: history, the dispatch
// shadow, the control plane's deployed-version map and the journal entry.
// A freshly written slot also installs as the hook's active — the displaced
// active becomes the new standby — and enters the resident fast-path
// index; a nil slot (the resident fast path re-targeting an already
// written blob) moves the dispatch shadow with switchDispatch instead.
func (cf *CodeFlow) installPublished(hook string, slot *slotImage, d Deployed) {
	cf.mu.Lock()
	cf.history[hook] = PushDeployed(cf.history[hook], d)
	if slot == nil {
		cf.switchDispatch(hook, d.Blob)
	} else {
		cf.dispatch[hook] = d.Blob
		hs := cf.slots[hook]
		if hs == nil {
			hs = &hookSlots{}
			cf.slots[hook] = hs
		}
		if hs.active != nil && hs.active.blob != slot.blob {
			hs.standby = hs.active
		}
		hs.active = slot
		if d.Digest != "" {
			cf.resident[d.Digest] = residentBlob{blob: slot.blob, kind: slot.kind}
		}
	}
	cf.mu.Unlock()
	cf.cp.recordDeployed(cf.NodeKey(), hook,
		DeployedVersion{Digest: d.Digest, Version: d.Version, Blob: d.Blob}, false)
	if j := cf.cp.journal(); j != nil {
		j.JournalPublish(cf.NodeKey(), hook, d)
	}
}

// switchDispatch records a commit-only pointer flip (resident fast path,
// rollback) that re-targets hook to an already-written blob: the dispatch
// shadow moves, and if the blob is this hook's standby the buffers swap so
// the displaced active becomes delta-reusable. Caller holds cf.mu.
func (cf *CodeFlow) switchDispatch(hook string, blob uint64) {
	cf.dispatch[hook] = blob
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
	// hook's blob via the resident index): the displaced active is now dead
	// code with known contents, so keep it reachable as a delta target.
	if hs.standby == nil {
		hs.standby = hs.active
	}
	hs.active = nil
}
