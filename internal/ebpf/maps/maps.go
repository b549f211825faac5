// Package maps implements XState data structures — the stateful side of
// runtime extensions (§3.4 of the RDX paper): eBPF-style array, hash, and
// LRU maps.
//
// Maps are laid out *in memory addressed through the extension ABI*, not in
// Go objects: a map is a header plus slots at a base address inside some
// xabi.Memory. On a data-plane node that memory is the DRAM arena, which is
// what makes RDX's remote XState management work — the control plane
// manipulates the same bytes over RDMA (through an RDMA-backed Memory
// adapter) that local extensions access at native speed, with no agent
// mediating.
//
// Layout (all little-endian):
//
//	header (64 bytes):
//	  +0  magic   u32 = 0x58537464 ("XStd")
//	  +4  type    u32
//	  +8  keySz   u32
//	  +12 valSz   u32
//	  +16 maxEnt  u32
//	  +20 count   u32
//	  +24 flags   u32
//	  +28 nbkt    u32   (hash/LRU bucket count, power of two)
//	  +32 lock    u64   (update mutual exclusion, via atomic memory if available)
//	  +40 tick    u64   (LRU logical clock)
//	  +48..64 reserved
//	data:
//	  array: maxEnt fixed slots of valSzPadded
//	  hash/LRU: nbkt buckets of [meta u64][key keySzPadded][value valSzPadded]
//	            meta: low 2 bits state (0 empty / 1 used / 2 tombstone),
//	                  upper bits LRU tick
package maps

import (
	"errors"
	"fmt"

	"rdx/internal/ebpf"
	"rdx/internal/xabi"
)

// HeaderSize is the fixed map header size.
const HeaderSize = 64

// Magic identifies a map header.
const Magic uint32 = 0x58537464

// Header field offsets.
const (
	offMagic = 0
	offType  = 4
	offKeySz = 8
	offValSz = 12
	offMaxE  = 16
	offCount = 20
	offFlags = 24
	offNBkt  = 28
	offLock  = 32
	offTick  = 40
)

// ErrFull is returned when a bounded map cannot accept another entry.
var ErrFull = errors.New("maps: map full")

// ErrNotFound is returned by Delete for missing keys.
var ErrNotFound = errors.New("maps: key not found")

// AtomicMemory is implemented by memories that support atomic qword CAS
// (the node arena adapter does); maps use it for update locking.
type AtomicMemory interface {
	CompareAndSwapMem(addr uint64, old, new uint64) (prev uint64, swapped bool, err error)
}

func pad8(n int) int { return (n + 7) &^ 7 }

// Size returns the total bytes a map with the given spec occupies,
// including its header. The XState allocator uses this.
func Size(spec ebpf.MapSpec) uint64 {
	switch spec.Type {
	case xabi.MapTypeArray:
		return HeaderSize + uint64(spec.MaxEntries)*uint64(pad8(spec.ValueSize))
	default:
		nbkt := bucketCount(spec.MaxEntries)
		slot := 8 + pad8(spec.KeySize) + pad8(spec.ValueSize)
		return HeaderSize + uint64(nbkt)*uint64(slot)
	}
}

func bucketCount(maxEntries int) int {
	n := 1
	for n < maxEntries*2 {
		n <<= 1
	}
	return n
}

// View is a handle to a map living at base within mem. It implements
// xabi.Map.
type View struct {
	mem  xabi.Memory
	base uint64

	typ    xabi.MapType
	keySz  int
	valSz  int
	maxEnt int
	nbkt   int
	slotSz int
}

// Create initializes a new map at base (the region must be zeroed or will
// be overwritten) and returns its view.
func Create(mem xabi.Memory, base uint64, spec ebpf.MapSpec) (*View, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	v := &View{
		mem:    mem,
		base:   base,
		typ:    spec.Type,
		keySz:  spec.KeySize,
		valSz:  spec.ValueSize,
		maxEnt: spec.MaxEntries,
	}
	if spec.Type != xabi.MapTypeArray {
		v.nbkt = bucketCount(spec.MaxEntries)
		v.slotSz = 8 + pad8(spec.KeySize) + pad8(spec.ValueSize)
	}
	w := func(off int, val uint32) error { return mem.WriteMem(base+uint64(off), 4, uint64(val)) }
	if err := w(offMagic, Magic); err != nil {
		return nil, err
	}
	w(offType, uint32(spec.Type))
	w(offKeySz, uint32(spec.KeySize))
	w(offValSz, uint32(spec.ValueSize))
	w(offMaxE, uint32(spec.MaxEntries))
	w(offCount, 0)
	w(offFlags, 0)
	w(offNBkt, uint32(v.nbkt))
	mem.WriteMem(base+offLock, 8, 0)
	mem.WriteMem(base+offTick, 8, 0)
	// Zero the data area so empty slots parse as empty.
	zero := make([]byte, 4096)
	total := Size(spec) - HeaderSize
	for off := uint64(0); off < total; off += uint64(len(zero)) {
		n := uint64(len(zero))
		if off+n > total {
			n = total - off
		}
		if err := mem.WriteBytes(base+HeaderSize+off, zero[:n]); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// Attach opens an existing map at base, validating its header. This is how
// both local extensions (at load time) and the remote control plane (over
// RDMA) bind to a deployed XState instance.
func Attach(mem xabi.Memory, base uint64) (*View, error) {
	r := func(off int) (uint32, error) {
		v, err := mem.ReadMem(base+uint64(off), 4)
		return uint32(v), err
	}
	magic, err := r(offMagic)
	if err != nil {
		return nil, err
	}
	if magic != Magic {
		return nil, fmt.Errorf("maps: no map header at %#x (magic %#x)", base, magic)
	}
	typ, _ := r(offType)
	keySz, _ := r(offKeySz)
	valSz, _ := r(offValSz)
	maxE, _ := r(offMaxE)
	nbkt, _ := r(offNBkt)
	v := &View{
		mem:    mem,
		base:   base,
		typ:    xabi.MapType(typ),
		keySz:  int(keySz),
		valSz:  int(valSz),
		maxEnt: int(maxE),
		nbkt:   int(nbkt),
	}
	if v.typ != xabi.MapTypeArray {
		v.slotSz = 8 + pad8(v.keySz) + pad8(v.valSz)
	}
	spec := ebpf.MapSpec{Name: "attached", Type: v.typ, KeySize: v.keySz, ValueSize: v.valSz, MaxEntries: v.maxEnt}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("maps: corrupt header at %#x: %w", base, err)
	}
	return v, nil
}

// Type implements xabi.Map.
func (v *View) Type() xabi.MapType { return v.typ }

// KeySize implements xabi.Map.
func (v *View) KeySize() int { return v.keySz }

// ValueSize implements xabi.Map.
func (v *View) ValueSize() int { return v.valSz }

// MaxEntries implements xabi.Map.
func (v *View) MaxEntries() int { return v.maxEnt }

// Count returns the live entry count (hash/LRU) or MaxEntries for arrays.
func (v *View) Count() (int, error) {
	if v.typ == xabi.MapTypeArray {
		return v.maxEnt, nil
	}
	c, err := v.mem.ReadMem(v.base+offCount, 4)
	return int(c), err
}

func (v *View) lock() func() {
	am, ok := v.mem.(AtomicMemory)
	if !ok {
		return func() {}
	}
	for {
		if _, swapped, err := am.CompareAndSwapMem(v.base+offLock, 0, 1); err != nil || swapped {
			break
		}
	}
	return func() { v.mem.WriteMem(v.base+offLock, 8, 0) }
}

// --- array ---

func (v *View) arraySlot(idx uint32) uint64 {
	return v.base + HeaderSize + uint64(idx)*uint64(pad8(v.valSz))
}

// --- hash / LRU ---

func keyHash(key []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

const (
	stateEmpty uint64 = 0
	stateUsed  uint64 = 1
	stateTomb  uint64 = 2
	stateMask  uint64 = 3
)

func (v *View) slotAddr(i int) uint64 {
	return v.base + HeaderSize + uint64(i)*uint64(v.slotSz)
}

func (v *View) slotKeyAddr(i int) uint64 { return v.slotAddr(i) + 8 }

func (v *View) slotValAddr(i int) uint64 {
	return v.slotAddr(i) + 8 + uint64(pad8(v.keySz))
}

// findSlot probes for key. Returns (usedSlot, firstFree) where either may be
// -1.
func (v *View) findSlot(key []byte) (int, int, error) {
	h := int(keyHash(key)) & (v.nbkt - 1)
	firstFree := -1
	for probe := 0; probe < v.nbkt; probe++ {
		i := (h + probe) & (v.nbkt - 1)
		meta, err := v.mem.ReadMem(v.slotAddr(i), 8)
		if err != nil {
			return -1, -1, err
		}
		switch meta & stateMask {
		case stateEmpty:
			if firstFree < 0 {
				firstFree = i
			}
			return -1, firstFree, nil
		case stateTomb:
			if firstFree < 0 {
				firstFree = i
			}
		case stateUsed:
			k, err := v.mem.ReadBytes(v.slotKeyAddr(i), v.keySz)
			if err != nil {
				return -1, -1, err
			}
			if bytesEqual(k, key) {
				return i, firstFree, nil
			}
		}
	}
	return -1, firstFree, nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Lookup implements xabi.Map: it returns the address of the value so
// extensions (and the remote control plane) can read/write it in place.
func (v *View) Lookup(key []byte) (uint64, bool, error) {
	if len(key) != v.keySz {
		return 0, false, fmt.Errorf("maps: key size %d, want %d", len(key), v.keySz)
	}
	if v.typ == xabi.MapTypeArray {
		idx := leU32(key)
		if int(idx) >= v.maxEnt {
			return 0, false, nil
		}
		return v.arraySlot(idx), true, nil
	}
	used, _, err := v.findSlot(key)
	if err != nil || used < 0 {
		return 0, false, err
	}
	if v.typ == xabi.MapTypeLRU {
		v.touch(used)
	}
	return v.slotValAddr(used), true, nil
}

func (v *View) touch(slot int) {
	tick, err := v.mem.ReadMem(v.base+offTick, 8)
	if err != nil {
		return
	}
	tick++
	v.mem.WriteMem(v.base+offTick, 8, tick)
	v.mem.WriteMem(v.slotAddr(slot), 8, stateUsed|tick<<2)
}

// Update implements xabi.Map.
func (v *View) Update(key, value []byte, flags uint64) error {
	if len(key) != v.keySz {
		return fmt.Errorf("maps: key size %d, want %d", len(key), v.keySz)
	}
	if len(value) != v.valSz {
		return fmt.Errorf("maps: value size %d, want %d", len(value), v.valSz)
	}
	if v.typ == xabi.MapTypeArray {
		idx := leU32(key)
		if int(idx) >= v.maxEnt {
			return fmt.Errorf("maps: array index %d out of %d", idx, v.maxEnt)
		}
		return v.mem.WriteBytes(v.arraySlot(idx), value)
	}

	unlock := v.lock()
	defer unlock()

	used, free, err := v.findSlot(key)
	if err != nil {
		return err
	}
	if used >= 0 {
		if flags == xabi.UpdateNoExist {
			return fmt.Errorf("maps: key exists")
		}
		return v.mem.WriteBytes(v.slotValAddr(used), value)
	}
	if flags == xabi.UpdateExist {
		return ErrNotFound
	}
	count, err := v.mem.ReadMem(v.base+offCount, 4)
	if err != nil {
		return err
	}
	if int(count) >= v.maxEnt {
		if v.typ == xabi.MapTypeLRU {
			evicted, err := v.evictOldest()
			if err != nil {
				return err
			}
			if free < 0 {
				free = evicted
			}
			count--
		} else {
			return ErrFull
		}
	}
	if free < 0 {
		return ErrFull
	}
	tick, _ := v.mem.ReadMem(v.base+offTick, 8)
	tick++
	v.mem.WriteMem(v.base+offTick, 8, tick)
	if err := v.mem.WriteBytes(v.slotKeyAddr(free), key); err != nil {
		return err
	}
	if err := v.mem.WriteBytes(v.slotValAddr(free), value); err != nil {
		return err
	}
	if err := v.mem.WriteMem(v.slotAddr(free), 8, stateUsed|tick<<2); err != nil {
		return err
	}
	return v.mem.WriteMem(v.base+offCount, 4, uint64(count+1))
}

func (v *View) evictOldest() (int, error) {
	oldest, oldestTick := -1, ^uint64(0)
	for i := 0; i < v.nbkt; i++ {
		meta, err := v.mem.ReadMem(v.slotAddr(i), 8)
		if err != nil {
			return -1, err
		}
		if meta&stateMask == stateUsed && meta>>2 < oldestTick {
			oldest, oldestTick = i, meta>>2
		}
	}
	if oldest < 0 {
		return -1, errors.New("maps: LRU eviction found no entries")
	}
	if err := v.mem.WriteMem(v.slotAddr(oldest), 8, stateTomb); err != nil {
		return -1, err
	}
	return oldest, nil
}

// Delete implements xabi.Map.
func (v *View) Delete(key []byte) error {
	if len(key) != v.keySz {
		return fmt.Errorf("maps: key size %d, want %d", len(key), v.keySz)
	}
	if v.typ == xabi.MapTypeArray {
		return errors.New("maps: array entries cannot be deleted")
	}
	unlock := v.lock()
	defer unlock()
	used, _, err := v.findSlot(key)
	if err != nil {
		return err
	}
	if used < 0 {
		return ErrNotFound
	}
	if err := v.mem.WriteMem(v.slotAddr(used), 8, stateTomb); err != nil {
		return err
	}
	count, err := v.mem.ReadMem(v.base+offCount, 4)
	if err != nil {
		return err
	}
	return v.mem.WriteMem(v.base+offCount, 4, count-1)
}

// Iterate calls fn for every live entry. Used by inspectors and tests; not
// part of the extension-visible ABI.
func (v *View) Iterate(fn func(key, value []byte) bool) error {
	if v.typ == xabi.MapTypeArray {
		for i := 0; i < v.maxEnt; i++ {
			var key [4]byte
			putLeU32(key[:], uint32(i))
			val, err := v.mem.ReadBytes(v.arraySlot(uint32(i)), v.valSz)
			if err != nil {
				return err
			}
			if !fn(key[:], val) {
				return nil
			}
		}
		return nil
	}
	for i := 0; i < v.nbkt; i++ {
		meta, err := v.mem.ReadMem(v.slotAddr(i), 8)
		if err != nil {
			return err
		}
		if meta&stateMask != stateUsed {
			continue
		}
		key, err := v.mem.ReadBytes(v.slotKeyAddr(i), v.keySz)
		if err != nil {
			return err
		}
		val, err := v.mem.ReadBytes(v.slotValAddr(i), v.valSz)
		if err != nil {
			return err
		}
		if !fn(key, val) {
			return nil
		}
	}
	return nil
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLeU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
