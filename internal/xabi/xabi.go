// Package xabi defines the extension runtime ABI shared by every execution
// engine in this repository: the eBPF interpreter, the simulated-native
// engine that runs JIT output, the Wasm filter VM, and UDFs.
//
// It pins down three contracts:
//
//   - Memory: how engines load and store through 64-bit virtual addresses.
//     On a data-plane node these addresses are DRAM arena offsets, so an
//     extension and the remote control plane literally share bytes.
//   - Helpers: the host-function call interface (numbered like Linux BPF
//     helpers) and the execution environment handed to them.
//   - Map: the XState data-structure interface (eBPF maps, Wasm shared
//     queues) with address-returning lookups for zero-copy access.
package xabi

import (
	"errors"
	"fmt"
)

// Well-known virtual address bases used by engines when running outside a
// node arena (unit tests, control-plane validation runs). On a node, all
// addresses are arena offsets instead.
const (
	StackBase uint64 = 0x7FF0_0000_0000 // per-invocation 512-byte stack grows down from here
	CtxBase   uint64 = 0x1000_0000_0000 // extension context structure
)

// StackSize is the per-invocation stack budget, matching eBPF's 512 bytes.
const StackSize = 512

// CtxSize is the size of the extension context structure. The layout is
// fixed for every extension kind (offsets below).
const CtxSize = 256

// Context structure layout (little-endian fields at fixed offsets). Bytes
// 64 up to CtxSize hold the request payload.
const (
	CtxOffDataLen  = 0  // u32: payload length
	CtxOffProtocol = 4  // u32: protocol / request kind
	CtxOffVerdict  = 8  // u32: extension-writable verdict slot
	CtxOffFlowID   = 16 // u64: request / flow identifier
	CtxOffTenant   = 24 // u64: tenant identifier
)

// Verdicts an extension returns (and writes to CtxOffVerdict).
const (
	VerdictDrop  uint64 = 0
	VerdictPass  uint64 = 1
	VerdictAbort uint64 = 2
)

// ErrFault is wrapped by engines for invalid memory accesses.
var ErrFault = errors.New("xabi: memory fault")

// Memory is the address-space abstraction engines execute against.
// Loads/stores are little-endian; size is 1, 2, 4, or 8 bytes.
type Memory interface {
	ReadMem(addr uint64, size int) (uint64, error)
	WriteMem(addr uint64, size int, val uint64) error
	ReadBytes(addr uint64, n int) ([]byte, error)
	WriteBytes(addr uint64, b []byte) error
}

// Helper identifiers. 1–9 mirror their Linux BPF counterparts; 20+ are the
// proxy-wasm-style host calls used by Wasm filters.
const (
	HelperMapLookup     = 1
	HelperMapUpdate     = 2
	HelperMapDelete     = 3
	HelperKtimeGetNS    = 5
	HelperTracePrintk   = 6
	HelperGetPrandomU32 = 7
	HelperGetSmpCPUID   = 8
	HelperGetHeader     = 20
	HelperSetHeader     = 21
	HelperLog           = 22
	HelperGetBodyLen    = 23
)

// HelperName returns a diagnostic name for a helper id.
func HelperName(id int) string {
	switch id {
	case HelperMapLookup:
		return "map_lookup_elem"
	case HelperMapUpdate:
		return "map_update_elem"
	case HelperMapDelete:
		return "map_delete_elem"
	case HelperKtimeGetNS:
		return "ktime_get_ns"
	case HelperTracePrintk:
		return "trace_printk"
	case HelperGetPrandomU32:
		return "get_prandom_u32"
	case HelperGetSmpCPUID:
		return "get_smp_processor_id"
	case HelperGetHeader:
		return "proxy_get_header"
	case HelperSetHeader:
		return "proxy_set_header"
	case HelperLog:
		return "proxy_log"
	case HelperGetBodyLen:
		return "proxy_get_body_len"
	default:
		return fmt.Sprintf("helper#%d", id)
	}
}

// HelperFn implements one helper. Arguments arrive in the extension ABI's
// five argument registers; the return value lands in R0.
type HelperFn func(env *Env, a1, a2, a3, a4, a5 uint64) (uint64, error)

// MapType enumerates XState map flavors.
type MapType uint32

const (
	MapTypeArray MapType = 1
	MapTypeHash  MapType = 2
	MapTypeLRU   MapType = 3
)

func (t MapType) String() string {
	switch t {
	case MapTypeArray:
		return "array"
	case MapTypeHash:
		return "hash"
	case MapTypeLRU:
		return "lru"
	default:
		return fmt.Sprintf("maptype(%d)", uint32(t))
	}
}

// Map is the XState data-structure contract. Lookup returns the virtual
// address of the value (zero-copy: extensions then load/store through it),
// mirroring bpf_map_lookup_elem returning a pointer.
type Map interface {
	Type() MapType
	KeySize() int
	ValueSize() int
	MaxEntries() int
	Lookup(key []byte) (valueAddr uint64, found bool, err error)
	Update(key, value []byte, flags uint64) error
	Delete(key []byte) error
}

// Map update flags, mirroring BPF_ANY / BPF_NOEXIST / BPF_EXIST.
const (
	UpdateAny     uint64 = 0
	UpdateNoExist uint64 = 1
	UpdateExist   uint64 = 2
)

// MapResolver resolves a runtime map handle (the patched LDDW immediate —
// on a node, the arena address of the map header) to a Map.
type MapResolver interface {
	ResolveMap(handle uint64) (Map, bool)
}

// Env is the execution environment handed to helpers.
type Env struct {
	Mem     Memory
	Maps    MapResolver
	NowNS   func() uint64 // monotonic clock; nil means 0
	RandU32 func() uint32 // PRNG; nil means 0
	CPUID   uint32
	// Headers backs the proxy-wasm host calls for Wasm filters.
	Headers map[string]string
	// LogSink receives trace_printk / proxy_log output; nil discards.
	LogSink func(msg string)
}

// Now returns the environment clock reading.
func (e *Env) Now() uint64 {
	if e.NowNS == nil {
		return 0
	}
	return e.NowNS()
}

// Rand returns the next PRNG value.
func (e *Env) Rand() uint32 {
	if e.RandU32 == nil {
		return 0
	}
	return e.RandU32()
}

// Log emits a diagnostic message to the sink, if any.
func (e *Env) Log(msg string) {
	if e.LogSink != nil {
		e.LogSink(msg)
	}
}

// Region is one contiguous mapping in a RegionMemory.
type Region struct {
	Base     uint64
	Data     []byte
	Writable bool
	Name     string
}

// RegionMemory is a Memory built from explicit regions — the form engines
// use in tests and on the control plane. It rejects cross-region accesses.
type RegionMemory struct {
	regions []*Region
}

// NewRegionMemory creates a memory with the given regions. Regions must not
// overlap; AddRegion enforces it.
func NewRegionMemory(regions ...*Region) (*RegionMemory, error) {
	m := &RegionMemory{}
	for _, r := range regions {
		if err := m.AddRegion(r); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// AddRegion registers a region, rejecting overlap with existing ones.
func (m *RegionMemory) AddRegion(r *Region) error {
	if len(r.Data) == 0 {
		return fmt.Errorf("xabi: region %q empty", r.Name)
	}
	for _, o := range m.regions {
		if r.Base < o.Base+uint64(len(o.Data)) && o.Base < r.Base+uint64(len(r.Data)) {
			return fmt.Errorf("xabi: region %q overlaps %q", r.Name, o.Name)
		}
	}
	m.regions = append(m.regions, r)
	return nil
}

func (m *RegionMemory) find(addr uint64, n int) (*Region, uint64, error) {
	for _, r := range m.regions {
		if addr >= r.Base && addr-r.Base+uint64(n) <= uint64(len(r.Data)) {
			return r, addr - r.Base, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: [%#x,+%d)", ErrFault, addr, n)
}

// ReadMem implements Memory.
func (m *RegionMemory) ReadMem(addr uint64, size int) (uint64, error) {
	r, off, err := m.find(addr, size)
	if err != nil {
		return 0, err
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(r.Data[off+uint64(i)])
	}
	return v, nil
}

// WriteMem implements Memory.
func (m *RegionMemory) WriteMem(addr uint64, size int, val uint64) error {
	r, off, err := m.find(addr, size)
	if err != nil {
		return err
	}
	if !r.Writable {
		return fmt.Errorf("%w: write to read-only region %q at %#x", ErrFault, r.Name, addr)
	}
	for i := 0; i < size; i++ {
		r.Data[off+uint64(i)] = byte(val >> (8 * i))
	}
	return nil
}

// ReadBytes implements Memory.
func (m *RegionMemory) ReadBytes(addr uint64, n int) ([]byte, error) {
	r, off, err := m.find(addr, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, r.Data[off:])
	return out, nil
}

// WriteBytes implements Memory.
func (m *RegionMemory) WriteBytes(addr uint64, b []byte) error {
	r, off, err := m.find(addr, len(b))
	if err != nil {
		return err
	}
	if !r.Writable {
		return fmt.Errorf("%w: write to read-only region %q at %#x", ErrFault, r.Name, addr)
	}
	copy(r.Data[off:], b)
	return nil
}

// HandleMapResolver is a MapResolver backed by a plain Go map.
type HandleMapResolver map[uint64]Map

// ResolveMap implements MapResolver.
func (h HandleMapResolver) ResolveMap(handle uint64) (Map, bool) {
	m, ok := h[handle]
	return m, ok
}
