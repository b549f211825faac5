package ebpf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"rdx/internal/xabi"
)

// ProgramType mirrors bpf_prog_type for the types this repo exercises.
type ProgramType uint32

const (
	ProgTypeUnspec       ProgramType = 0
	ProgTypeSocketFilter ProgramType = 1
	ProgTypeXDP          ProgramType = 6
	ProgTypeTracepoint   ProgramType = 5
)

func (t ProgramType) String() string {
	switch t {
	case ProgTypeSocketFilter:
		return "socket_filter"
	case ProgTypeXDP:
		return "xdp"
	case ProgTypeTracepoint:
		return "tracepoint"
	default:
		return fmt.Sprintf("prog_type(%d)", uint32(t))
	}
}

// MapSpec declares an XState map a program needs. The loader creates (or
// binds) the map and patches its runtime handle into every referencing LDDW.
type MapSpec struct {
	Name       string
	Type       xabi.MapType
	KeySize    int
	ValueSize  int
	MaxEntries int
}

// Validate performs static sanity checks on the spec.
func (s *MapSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("ebpf: map spec missing name")
	}
	if s.KeySize <= 0 || s.KeySize > 512 {
		return fmt.Errorf("ebpf: map %q key size %d out of range", s.Name, s.KeySize)
	}
	if s.ValueSize <= 0 || s.ValueSize > 1<<16 {
		return fmt.Errorf("ebpf: map %q value size %d out of range", s.Name, s.ValueSize)
	}
	if s.MaxEntries <= 0 || s.MaxEntries > 1<<24 {
		return fmt.Errorf("ebpf: map %q max entries %d out of range", s.Name, s.MaxEntries)
	}
	switch s.Type {
	case xabi.MapTypeArray:
		if s.KeySize != 4 {
			return fmt.Errorf("ebpf: array map %q requires 4-byte keys", s.Name)
		}
	case xabi.MapTypeHash, xabi.MapTypeLRU:
	default:
		return fmt.Errorf("ebpf: map %q has unknown type %v", s.Name, s.Type)
	}
	return nil
}

// Program is an eBPF extension: instructions plus the metadata a real
// struct bpf_program carries. The paper's §3.1 observation — that extension
// objects have dozens of metadata variables beyond the code pointer, which
// is why naive remote injection fails — is reflected in Meta below.
type Program struct {
	Name  string
	Type  ProgramType
	Insns []Instruction
	// Maps lists the XState maps referenced by LoadMapPtr instructions;
	// an LDDW with PseudoMapFD and Imm=i refers to Maps[i].
	Maps    []MapSpec
	License string

	Meta Metadata
}

// Metadata mirrors the bookkeeping fields of struct bpf_program /
// bpf_prog_aux (the "no less than 30 variables" of the paper's §3.1).
// Most fields are filled by the toolchain (validator, JIT, loader) as the
// program moves through the pipeline.
type Metadata struct {
	// Identity.
	ID        uint64
	Tag       string // truncated digest, like bpf_prog tags
	UID       uint32
	CreatedNS uint64

	// Shape.
	InsnCnt      uint32
	JitedLen     uint32
	XlatedLen    uint32
	StackDepth   uint32
	NumMaps      uint32
	NumHelpers   uint32
	MaxCtxOffset uint32

	// Capabilities discovered by the verifier.
	UsesMapLookup  bool
	UsesMapUpdate  bool
	WritesCtx      bool
	HasJumps       bool
	MaxBranchDepth uint32

	// Runtime attachment state (filled at load time).
	AttachedHook  string
	AttachCount   uint32
	RefCount      int32
	LoadedAtNS    uint64
	NodeID        string
	SandboxID     uint32
	Version       uint64
	GPLCompatible bool

	// JIT provenance.
	JITArch      string
	JITTimeNS    uint64
	VerifyTimeNS uint64

	// Accounting.
	RunCount   uint64
	RunTimeNS  uint64
	MissCount  uint64
	LastRunNS  uint64
	MemlockKB  uint32
	Priority   int32
	Flags      uint32
	ExpiryNS   uint64
	OwnerToken uint64
}

// NewProgram builds a program and fills the statically derivable metadata.
func NewProgram(name string, typ ProgramType, insns []Instruction, maps ...MapSpec) *Program {
	p := &Program{
		Name:    name,
		Type:    typ,
		Insns:   insns,
		Maps:    maps,
		License: "GPL",
	}
	p.Meta.InsnCnt = uint32(len(insns))
	p.Meta.NumMaps = uint32(len(maps))
	p.Meta.GPLCompatible = true
	p.Meta.CreatedNS = uint64(time.Now().UnixNano())
	p.Meta.Tag = p.Digest()[:16]
	return p
}

// Bytecode returns the serialized instruction stream — the extension IR
// that travels from the user to the control plane.
func (p *Program) Bytecode() []byte { return Encode(p.Insns) }

// Digest returns a hex SHA-256 over everything that affects compiled
// output: bytecode, type, and map shapes. The control plane's
// compile-once/deploy-anywhere cache is keyed on it.
func (p *Program) Digest() string {
	h := sha256.New()
	// Feed the hash Encode's layout a buffer at a time: a digest is taken on
	// every publish and must not cost a copy of the program.
	var buf [64 * InsnSize]byte
	for insns := p.Insns; len(insns) > 0; {
		chunk := buf[:0]
		for ; len(insns) > 0 && len(chunk) < len(buf); insns = insns[1:] {
			chunk = insns[0].Encode(chunk)
		}
		h.Write(chunk)
	}
	var tb [4]byte
	binary.LittleEndian.PutUint32(tb[:], uint32(p.Type))
	h.Write(tb[:])
	for _, m := range p.Maps {
		fmt.Fprintf(h, "|%s:%d:%d:%d:%d", m.Name, m.Type, m.KeySize, m.ValueSize, m.MaxEntries)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// MapRefs returns the instruction indexes of every map-reference LDDW,
// paired with the map index each refers to.
func (p *Program) MapRefs() []MapRef {
	var refs []MapRef
	for i := 0; i < len(p.Insns); i++ {
		ins := p.Insns[i]
		if ins.IsLDDW() {
			if ins.Src == PseudoMapFD {
				refs = append(refs, MapRef{InsnIdx: i, MapIdx: int(ins.Imm)})
			}
			i++ // skip the second slot
		}
	}
	return refs
}

// MapRef locates one map-reference LDDW within a program.
type MapRef struct {
	InsnIdx int // index of the LDDW's first slot
	MapIdx  int // index into Program.Maps
}

// HelperRefs returns the set of helper ids the program calls.
func (p *Program) HelperRefs() []int {
	seen := map[int32]bool{}
	var out []int
	for i := 0; i < len(p.Insns); i++ {
		ins := p.Insns[i]
		if ins.IsLDDW() {
			i++
			continue
		}
		if ins.Class() == ClassJMP && ins.JmpOp() == JmpCall && !seen[ins.Imm] {
			seen[ins.Imm] = true
			out = append(out, int(ins.Imm))
		}
	}
	return out
}

// Clone returns a deep copy (instructions and map specs).
func (p *Program) Clone() *Program {
	cp := *p
	cp.Insns = append([]Instruction(nil), p.Insns...)
	cp.Maps = append([]MapSpec(nil), p.Maps...)
	return &cp
}
