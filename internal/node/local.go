package node

import (
	"encoding/binary"
	"fmt"

	"rdx/internal/mem"
	"rdx/internal/native"
)

// Local loading primitives. These are the operations a node-resident agent
// performs with ordinary CPU instructions; the RDX control plane performs
// the *same* state transitions remotely via one-sided verbs (FETCH_ADD on
// the bump pointers, WRITE of the blob, CAS of the dispatch pointer). Both
// paths therefore interoperate on the same arena layout.

// AllocCode reserves size bytes (8-aligned) in the code region and returns
// the blob base address. The bump pointer runs to the region's end; on an
// overrun allocation restarts at the base and steps over every blob a hook
// dispatches, read from the node's own hook table and blob headers. When
// no gap between them fits, AllocCode fails: it never overwrites code a
// hook may run.
func (n *Node) AllocCode(size int) (mem.Addr, error) {
	sz := uint64((size + 7) &^ 7)
	if sz > CodeSize/2 {
		return 0, fmt.Errorf("node %s: blob of %d bytes exceeds half the code region", n.ID, size)
	}
	const brk = CtrlBase + CtrlOffCodeBrk
	for wraps := 0; wraps < 2; {
		prev, err := n.Arena.FetchAdd(brk, sz)
		if err != nil {
			return 0, err
		}
		if prev+sz > CodeBase+CodeSize {
			// Competing allocators race via CAS on the over-run value.
			n.Arena.CompareAndSwap(brk, prev+sz, CodeBase)
			wraps++
		} else if end := n.dispatchedEnd(prev, prev+sz); end != 0 {
			n.Arena.CompareAndSwap(brk, prev+sz, end)
		} else {
			return prev, nil
		}
	}
	return 0, fmt.Errorf("node %s: code region full: no gap of %d bytes between dispatched blobs", n.ID, sz)
}

// dispatchedEnd returns the furthest 8-aligned end of a dispatched blob
// overlapping [lo, hi), or 0 if none does.
func (n *Node) dispatchedEnd(lo, hi uint64) uint64 {
	var end uint64
	for _, slot := range n.hooks {
		blob, _ := n.Arena.ReadQword(HookAddr(slot) + HookOffDispatch) // in the arena: cannot fail
		codeLen, err := n.Arena.ReadU32(blob + BlobOffLen)
		if blobEnd := (blob + BlobHdrSize + uint64(codeLen) + 7) &^ 7; err == nil && blob != 0 && blob < hi && lo < blobEnd {
			end = max(end, blobEnd)
		}
	}
	return end
}

// AllocScratch reserves size bytes (64-aligned) in the XState scratchpad.
func (n *Node) AllocScratch(size int) (mem.Addr, error) {
	sz := (uint64(size) + 63) &^ 63
	prev, err := n.Arena.FetchAdd(CtrlBase+CtrlOffScratchBrk, sz)
	if err != nil {
		return 0, err
	}
	if prev+sz > ScratchBase+ScratchSize {
		return 0, fmt.Errorf("node %s: scratchpad exhausted (%d bytes requested)", n.ID, size)
	}
	return prev, nil
}

// BlobParams describes a deployable code blob.
type BlobParams struct {
	Kind     uint8
	Version  uint64
	MemBase  uint64 // wasm linear memory, 0 otherwise
	GlobBase uint64 // wasm globals, 0 otherwise
}

// EncodeBlobHeader builds the 48-byte blob header.
func EncodeBlobHeader(arch native.Arch, p BlobParams, codeLen int) []byte {
	hdr := make([]byte, BlobHdrSize)
	binary.LittleEndian.PutUint32(hdr[BlobOffMagic:], BlobMagic)
	hdr[BlobOffArch] = uint8(arch)
	hdr[BlobOffArch+1] = p.Kind
	binary.LittleEndian.PutUint32(hdr[BlobOffLen:], uint32(codeLen))
	binary.LittleEndian.PutUint64(hdr[BlobOffVersion:], p.Version)
	binary.LittleEndian.PutUint64(hdr[BlobOffRefcnt:], 1)
	binary.LittleEndian.PutUint64(hdr[BlobOffMemBase:], p.MemBase)
	binary.LittleEndian.PutUint64(hdr[BlobOffGlobBase:], p.GlobBase)
	return hdr
}

// WriteBlobLocal allocates code space and writes header + code with the
// local CPU, returning the blob address.
func (n *Node) WriteBlobLocal(bin *native.Binary, p BlobParams) (mem.Addr, error) {
	if !bin.Linked() {
		return 0, fmt.Errorf("node %s: deploying unlinked binary %q", n.ID, bin.Name)
	}
	addr, err := n.AllocCode(BlobHdrSize + len(bin.Code))
	if err != nil {
		return 0, err
	}
	if err := n.Arena.Write(addr, EncodeBlobHeader(bin.Arch, p, len(bin.Code))); err != nil {
		return 0, err
	}
	if err := n.Arena.Write(addr+BlobHdrSize, bin.Code); err != nil {
		return 0, err
	}
	return addr, nil
}

// BindHookLocal atomically publishes blobAddr as the hook's extension:
// writes the version, then flips the dispatch pointer with a CAS against
// the previous value (so concurrent flips do not interleave).
func (n *Node) BindHookLocal(hook string, blobAddr mem.Addr, version uint64) error {
	slot, err := n.HookSlot(hook)
	if err != nil {
		return err
	}
	base := HookAddr(slot)
	if err := n.Arena.WriteQword(base+HookOffVersion, version); err != nil {
		return err
	}
	for {
		cur, err := n.Arena.ReadQword(base + HookOffDispatch)
		if err != nil {
			return err
		}
		if _, swapped, err := n.Arena.CompareAndSwap(base+HookOffDispatch, cur, uint64(blobAddr)); err != nil {
			return err
		} else if swapped {
			if n.Cache != nil {
				// A local store is visible to the local CPU.
				n.Cache.Invalidate(base + HookOffDispatch)
			}
			return nil
		}
	}
}

// LocalResolver returns a relocation resolver over the node's own GOT plus
// explicit per-deployment symbols (map addresses, wasm memory bases).
func (n *Node) LocalResolver(extra map[string]uint64) func(native.RelocKind, string) (uint64, bool) {
	return func(_ native.RelocKind, sym string) (uint64, bool) {
		if a, ok := extra[sym]; ok {
			return a, true
		}
		a, ok := n.got[sym]
		return a, ok
	}
}

// RegisterMetaXState appends an XState header address to the Meta-XState
// array (local form; the control plane does the same with FETCH_ADD+WRITE).
func (n *Node) RegisterMetaXState(hdrAddr mem.Addr) (int, error) {
	idx, err := n.Arena.FetchAdd(MetaBase, 1)
	if err != nil {
		return 0, err
	}
	if idx >= MetaEntries {
		return 0, fmt.Errorf("node %s: Meta-XState full", n.ID)
	}
	if err := n.Arena.WriteQword(MetaBase+8+mem.Addr(idx)*8, uint64(hdrAddr)); err != nil {
		return 0, err
	}
	return int(idx), nil
}

// MetaXStateEntries reads the Meta-XState index.
func (n *Node) MetaXStateEntries() ([]mem.Addr, error) {
	count, err := n.Arena.ReadQword(MetaBase)
	if err != nil {
		return nil, err
	}
	if count > MetaEntries {
		count = MetaEntries
	}
	out := make([]mem.Addr, 0, count)
	for i := uint64(0); i < count; i++ {
		a, err := n.Arena.ReadQword(MetaBase + 8 + mem.Addr(i)*8)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
