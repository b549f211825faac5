// Package node implements an RDX data-plane node: a DRAM arena laid out
// with a control block, hook table, GOT, code region, XState scratchpad,
// and Meta-XState index; a software RNIC serving one-sided verbs against
// that arena; a bounded pool of simulated CPU cores; and the sandbox
// dispatch path that executes injected extensions on request traffic.
//
// The node boots through the paper's three management stubs (§3.1):
//
//	ctx_init     — lay out the arena and preload empty extensions
//	ctx_register — register memory regions (and the cc_event doorbell)
//	              with the RNIC for remote access
//	ctx_teardown — detach extensions by reference count
//
// After boot the node needs NO local control software: every control-path
// operation (allocation, code injection, linking artifacts, XState
// management, pointer flips) is reachable through RDMA verbs on the
// registered regions. Allocation in particular is a remote FETCH_ADD on
// the bump pointers in the control block, which is what lets the control
// plane carve code and XState space without a local agent.
package node

import "rdx/internal/mem"

// Arena layout constants. All offsets are fixed so the remote control plane
// can navigate the arena from the MR table alone.
const (
	// Control block: magic, arch, epoch, bump pointers.
	CtrlBase = 0x0000
	CtrlSize = 0x1000

	// Hook table: HookSlots fixed slots of HookSlotSize bytes.
	HookBase     = 0x1000
	HookSlotSize = 128
	HookSlots    = 64
	HookSize     = HookSlots * HookSlotSize // 8 KiB

	// Serialized GOT: symbol table exposing local context (§3.3).
	GOTBase = 0x10000
	GOTSize = 0x10000

	// Code region: extension blobs, allocated via the code bump pointer.
	CodeBase = 0x20000
	CodeSize = 4 << 20

	// Scratchpad: XState backing store (§3.4), allocated via bump pointer.
	ScratchBase = CodeBase + CodeSize
	ScratchSize = 8 << 20

	// Meta-XState: index array of XState header addresses.
	MetaBase    = ScratchBase + ScratchSize
	MetaEntries = 4096
	MetaSize    = 8 + MetaEntries*8 // count qword + entries

	// ArenaSize is the total node DRAM.
	ArenaSize = MetaBase + MetaSize + 0x1000
)

// Control block field offsets (qwords unless noted).
const (
	CtrlOffMagic      = 0x00 // u32 magic + u32 arch
	CtrlOffEpoch      = 0x08 // global update epoch
	CtrlOffCodeBrk    = 0x10 // code region bump pointer (absolute addr)
	CtrlOffScratchBrk = 0x18 // scratchpad bump pointer (absolute addr)
	CtrlOffBootNS     = 0x28
	CtrlOffNodeHash   = 0x30
)

// CtrlMagic identifies an initialized RDX node arena.
const CtrlMagic uint32 = 0x5244_5801 // "RDX\x01"

// Hook slot field offsets.
const (
	HookOffDispatch = 0x00 // qword: address of the active code blob (0 = pass)
	HookOffVersion  = 0x08 // qword: monotonically increasing extension version
	HookOffLock     = 0x10 // qword: rdx_mutual_excl lock word
	HookOffBuffer   = 0x18 // qword: BBU buffering gate (nonzero = hold requests)
	HookOffExecs    = 0x20 // qword: execution count (data-plane stats)
	HookOffDrops    = 0x28 // qword: drop-verdict count
	HookOffStaged   = 0x30 // qword: staged blob address for two-phase commit
	HookOffInflight = 0x38 // qword: requests currently inside the bubble (BBU drain)
	HookOffFuel     = 0x40 // qword: per-execution instruction budget (0 = engine default)
	HookOffAborts   = 0x48 // qword: executions aborted by the runtime limit
)

// MR names registered by ctx_register. The control plane locates regions by
// these names in the QueryMRs exchange.
const (
	MRCtrl    = "rdx:ctrl" // control block + hook table (read/write/atomic)
	MRGot     = "rdx:got"  // GOT (read-only remotely)
	MRCode    = "rdx:code"
	MRScratch = "rdx:scratch"
	MRMeta    = "rdx:meta"
)

// Code blob header, written at the start of every deployed extension.
const (
	BlobMagic       uint32 = 0x5842_4C42 // "XBLB"
	BlobHdrSize            = 48
	BlobOffMagic           = 0  // u32
	BlobOffArch            = 4  // u8 arch, u8 kind, u16 pad
	BlobOffLen             = 8  // u32 code length
	BlobOffVersion         = 16 // u64
	BlobOffRefcnt          = 24 // u64
	BlobOffMemBase         = 32 // u64: wasm linear memory (0 if unused)
	BlobOffGlobBase        = 40 // u64: wasm globals (0 if unused)
)

// Extension kinds carried in blob headers.
const (
	KindEBPF uint8 = 1
	KindWasm uint8 = 2
	KindUDF  uint8 = 3
)

// HookAddr returns the arena address of hook slot i.
func HookAddr(i int) mem.Addr {
	return HookBase + mem.Addr(i)*HookSlotSize
}

// Doorbell immediate values for WRITE_WITH_IMM operations.
const (
	DoorbellCCInvalidate uint32 = 1 // rdx_cc_event: invalidate cacheline at addr
)
