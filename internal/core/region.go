package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"rdx/internal/node"
)

// The code-region allocator hands out space only where no live blob lies.
// Hard-live blobs are never reused: every blob a hook on the node
// dispatches, read back at sweep time (which covers other controllers, raw
// Tx users and a publish whose CAS outcome is unknown), and every pending
// one. Soft-live blobs — slot images and live history entries, the resident
// set — are reused only under pressure, and reusing one tombstones it
// through the claim path. Space is fresh until the node's code-brk
// FETCH_ADD overruns, then carved first-fit from a free list that a sweep
// rebuilds when nothing fits.

// ErrCodeRegionFull reports that no gap between hard-live blobs fits an
// allocation: the allocator fails rather than overwrite code a hook may run.
var ErrCodeRegionFull = errors.New("core: code region full")

type codeSpan struct{ addr, size uint64 }

const codeEnd = node.CodeBase + node.CodeSize

// blobCap is the region space a blob of n bytes takes.
func blobCap(n int) uint64 { return uint64(n+7) &^ 7 }

// AllocCode is rdx_alloc_code: reserve size bytes of the code region. The
// space is the caller's until the allocator next sweeps the region: unless
// a hook dispatches a blob there by then, a later allocation may reuse it.
func (cf *CodeFlow) AllocCode(size int) (uint64, error) {
	addr, err := cf.allocCode(cf.Remote, blobCap(size), cf.cp.checkFence)
	if err == nil {
		cf.release(addr)
	}
	return addr, err
}

// allocCode reserves sz bytes and marks them pending: fresh space, else
// space allocReused carves.
func (cf *CodeFlow) allocCode(rem *RemoteMemory, sz uint64, fence func() error) (uint64, error) {
	if addr, ok, err := cf.allocFresh(rem, sz); ok || err != nil {
		return addr, err
	}
	cf.pubMu.Lock()
	defer cf.pubMu.Unlock()
	return cf.allocReused(rem, sz, fence)
}

// allocReused carves sz bytes and marks them pending. Reused space goes
// only to a controller that still leads: fence (the caller's, which may have
// run already) is checked after the carve's sweep READs. Caller holds pubMu.
func (cf *CodeFlow) allocReused(rem *RemoteMemory, sz uint64, fence func() error) (uint64, error) {
	addr, err := cf.carve(rem, sz)
	if err == nil {
		err = fence()
	}
	if err != nil {
		return 0, err
	}
	cf.markPending(addr, sz)
	return addr, nil
}

// allocFresh bump-allocates with the node's code-brk FETCH_ADD until it
// overruns. The word is left past the end, so every controller sharing the
// node sees the region exhausted from then on. ok is false once it is.
func (cf *CodeFlow) allocFresh(rem *RemoteMemory, sz uint64) (addr uint64, ok bool, err error) {
	if sz > node.CodeSize/2 {
		return 0, false, fmt.Errorf("core: blob of %d bytes exceeds half the code region", sz)
	}
	cf.freshMu.RLock()
	defer cf.freshMu.RUnlock()
	if cf.exhausted.Load() {
		return 0, false, nil
	}
	prev, err := rem.FetchAddMem(node.CtrlBase+node.CtrlOffCodeBrk, sz)
	if err != nil {
		return 0, false, err
	}
	if prev+sz > codeEnd {
		cf.exhausted.Store(true)
		return 0, false, nil
	}
	cf.markPending(prev, sz)
	return prev, true, nil
}

func (cf *CodeFlow) markPending(blob, sz uint64) {
	cf.mu.Lock()
	cf.pending[blob] = sz
	cf.mu.Unlock()
}

// landed drops hookAddr's in-doubt flips once a flip there to blob has
// landed: its CAS swapped from whatever word was there, so the hook no
// longer dispatches their blobs. A blob in doubt on no other hook is
// released; the caller installs blob itself. Caller holds pubMu.
func (cf *CodeFlow) landed(hookAddr, blob uint64) {
	for b, hooks := range cf.inDoubt {
		if delete(hooks, hookAddr); len(hooks) == 0 {
			delete(cf.inDoubt, b)
			if b != blob {
				cf.release(b)
			}
		}
	}
}

// release drops blob from pending: nothing will publish it, so a later
// sweep may reuse its space.
func (cf *CodeFlow) release(blob uint64) {
	cf.mu.Lock()
	delete(cf.pending, blob)
	cf.mu.Unlock()
}

// carve takes sz bytes first-fit from the free list, sweeping when nothing
// fits: first around every live blob, then, under pressure, around the
// hard-live ones only. Caller holds pubMu.
func (cf *CodeFlow) carve(rem *RemoteMemory, sz uint64) (uint64, error) {
	if addr, ok := takeFit(cf.free, sz); ok {
		return addr, nil
	}
	hard, soft, err := cf.sweep(rem)
	if err != nil {
		return 0, err
	}
	cf.free = freeSpans(append(soft, hard...))
	if addr, ok := takeFit(cf.free, sz); ok {
		return addr, nil
	}
	// The rest of the pressure list may overlap soft-live blobs not
	// reclaimed yet, so it is not kept.
	cf.free = nil
	free := freeSpans(hard)
	addr, ok := takeFit(free, sz)
	if !ok {
		hardLive := uint64(node.CodeSize)
		for _, s := range free {
			hardLive -= s.size
		}
		return 0, fmt.Errorf("%w: need %d bytes, %d bytes hard-live", ErrCodeRegionFull, sz, hardLive)
	}
	var claimed []uint64
	cf.mu.Lock()
	for _, s := range soft {
		if s.addr < addr+sz && addr < s.addr+s.size && !slices.Contains(claimed, s.addr) {
			claimed = append(claimed, s.addr)
			cf.reclaimLocked(s.addr)
		}
	}
	cf.mu.Unlock()
	if j := cf.cp.journal(); j != nil {
		for _, blob := range claimed {
			j.JournalClaim(cf.NodeKey(), blob)
		}
	}
	return addr, nil
}

// sweep returns the hard-live spans and the soft-live ones. A blob's size
// is the largest this controller gave it (pending or slot), else its
// header's length: one READ per hook plus one per blob of neither kind.
// An in-doubt blob is hard-live: a CAS to it may land yet. Caller holds
// pubMu.
func (cf *CodeFlow) sweep(rem *RemoteMemory) (hard, soft []codeSpan, err error) {
	// Wait out fresh allocations in flight: each is pending once this
	// returns, and none starts after the region is exhausted.
	cf.freshMu.Lock()
	cf.freshMu.Unlock()
	for sym, hookAddr := range cf.got {
		if strings.HasPrefix(sym, "hook:") {
			blob, err := rem.ReadMem(hookAddr+node.HookOffDispatch, 8)
			if err != nil {
				return nil, nil, err
			}
			hard = append(hard, codeSpan{addr: blob}) // size 0: look it up
		}
	}
	for blob := range cf.inDoubt {
		hard = append(hard, codeSpan{addr: blob})
	}
	cf.mu.Lock()
	for blob, sz := range cf.pending {
		hard = append(hard, codeSpan{blob, sz})
	}
	for _, hs := range cf.slots {
		for _, s := range []*slotImage{hs.active, hs.standby} {
			if s != nil {
				soft = append(soft, codeSpan{s.blob, s.cap}) // a claim may fill the cap
			}
		}
	}
	for _, hist := range cf.history {
		for _, d := range hist {
			if !d.Reclaimed {
				soft = append(soft, codeSpan{addr: d.Blob})
			}
		}
	}
	cf.mu.Unlock()
	size := map[uint64]uint64{}
	for _, s := range slices.Concat(hard, soft) {
		size[s.addr] = max(size[s.addr], s.size)
	}
	for _, spans := range []*[]codeSpan{&hard, &soft} {
		kept := (*spans)[:0]
		for _, s := range *spans {
			if s.addr < node.CodeBase || s.addr >= codeEnd {
				continue
			}
			if size[s.addr] == 0 {
				n, err := rem.ReadMem(s.addr+node.BlobOffLen, 4)
				if err != nil {
					return nil, nil, err
				}
				size[s.addr] = min(blobCap(node.BlobHdrSize+int(n)), codeEnd-s.addr)
			}
			kept = append(kept, codeSpan{s.addr, size[s.addr]})
		}
		*spans = kept
	}
	return hard, soft, nil
}

// reclaimLocked tombstones blob's live history entries, so neither Rollback
// nor the resident fast path re-dispatches it, drops the slots that hold it
// and forgets its code hash. The caller journals the claim. Caller holds mu.
func (cf *CodeFlow) reclaimLocked(blob uint64) {
	for _, hs := range cf.slots {
		if hs.active != nil && hs.active.blob == blob {
			hs.active = nil
		}
		if hs.standby != nil && hs.standby.blob == blob {
			hs.standby = nil
		}
	}
	// Tombstone rather than delete: the blob may sit in several hooks'
	// rollback stacks (published there via the resident fast path).
	// Keeping the entries, marked Reclaimed, preserves stack depth and lets
	// Rollback report why a version is gone instead of silently skipping it
	// or failing with "no prior version".
	reclaimed := 0
	for _, hist := range cf.history {
		for i := range hist {
			if hist[i].Blob == blob && !hist[i].Reclaimed {
				hist[i].Reclaimed = true
				reclaimed++
			}
		}
	}
	if reclaimed > 0 {
		cf.cp.Registry.Counter("core.history.reclaimed").Add(uint64(reclaimed))
	}
	delete(cf.codeHashes, blob)
}

// freeSpans returns the code region minus live, in address order. It
// sorts live in place.
func freeSpans(live []codeSpan) []codeSpan {
	sort.Slice(live, func(i, j int) bool { return live[i].addr < live[j].addr })
	var free []codeSpan
	at := uint64(node.CodeBase)
	for _, s := range append(live, codeSpan{codeEnd, 0}) {
		if s.addr > at {
			free = append(free, codeSpan{at, s.addr - at})
		}
		at = max(at, s.addr+s.size)
	}
	return free
}

// takeFit cuts sz bytes from the first span of free that fits.
func takeFit(free []codeSpan, sz uint64) (uint64, bool) {
	for i := range free {
		if s := &free[i]; s.size >= sz {
			s.addr += sz
			s.size -= sz
			return s.addr - sz, true
		}
	}
	return 0, false
}
