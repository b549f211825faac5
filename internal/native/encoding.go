package native

import "fmt"

// a64InstSize is the fixed instruction width of the A64 encoding.
const a64InstSize = 24

// hasImm reports whether an op carries a 4-byte immediate field.
func hasImm(op uint8) bool {
	switch op {
	case OpAluRI, OpLoad, OpStore, OpStoreI, OpJmp, OpJmpI:
		return true
	}
	return false
}

// hasExt reports whether an op carries an 8-byte extended operand.
func hasExt(op uint8) bool {
	switch op {
	case OpMovRI, OpStoreI, OpJmpI, OpCall:
		return true
	}
	return false
}

// x64Size returns the encoded size of op under the variable-length encoding.
func x64Size(op uint8) int {
	n := 5
	if hasImm(op) {
		n += 4
	}
	if hasExt(op) {
		n += 8
	}
	return n
}

// Assembler emits instructions in one architecture's encoding, recording
// relocation offsets for 64-bit operand fields that the linker must patch.
type Assembler struct {
	arch   Arch
	code   []byte
	relocs []Reloc
	n      int // ops emitted
}

// NewAssembler creates an assembler for arch. ops, when the caller knows it,
// is the number of ops about to be emitted: the code buffer is sized for them
// up front (x64 ops take 5–17 bytes and average under 10); 0 leaves it to grow.
func NewAssembler(arch Arch, ops int) *Assembler {
	size := ops * 10
	if arch == ArchA64 {
		size = ops * a64InstSize
	}
	return &Assembler{arch: arch, code: make([]byte, 0, size)}
}

// Len returns the number of ops emitted so far (the next op's index).
func (s *Assembler) Len() int { return s.n }

// extOffset returns the byte offset of the ext field for an op emitted at
// byte position pos.
func (s *Assembler) extOffset(op uint8, pos int) uint32 {
	if s.arch == ArchA64 {
		return uint32(pos + 16)
	}
	off := pos + 5
	if hasImm(op) {
		off += 4
	}
	return uint32(off)
}

// Emit appends one instruction and returns its op index.
func (s *Assembler) Emit(i Inst) int {
	pos := len(s.code)
	switch s.arch {
	case ArchA64:
		var b [a64InstSize]byte
		b[0], b[1], b[2], b[3], b[4] = i.Op, i.Flags, i.A, i.B, i.C
		putLeU32(b[8:12], uint32(i.Imm))
		putLeU64(b[16:24], i.Ext)
		s.code = append(s.code, b[:]...)
	case ArchX64:
		s.code = append(s.code, i.Op, i.Flags, i.A, i.B, i.C)
		if hasImm(i.Op) {
			var b [4]byte
			putLeU32(b[:], uint32(i.Imm))
			s.code = append(s.code, b[:]...)
		}
		if hasExt(i.Op) {
			var b [8]byte
			putLeU64(b[:], i.Ext)
			s.code = append(s.code, b[:]...)
		}
	default:
		panic(fmt.Sprintf("native: assembler for unknown arch %v", s.arch))
	}
	_ = pos
	s.n++
	return s.n - 1
}

// EmitReloc appends an instruction whose Ext is unresolved: the field is
// filled with PlaceholderValue and a relocation entry is recorded.
func (s *Assembler) EmitReloc(i Inst, kind RelocKind, symbol string) int {
	if !hasExt(i.Op) {
		panic("native: EmitReloc on op without ext field")
	}
	pos := len(s.code)
	i.Ext = PlaceholderValue
	idx := s.Emit(i)
	s.relocs = append(s.relocs, Reloc{
		Offset: s.extOffset(i.Op, pos),
		Kind:   kind,
		Symbol: symbol,
	})
	return idx
}

// PatchImm rewrites the imm32 field of the op at index idx (used to
// back-patch forward jump targets).
func (s *Assembler) PatchImm(idx int, imm int32) {
	pos, op := s.locate(idx)
	var off int
	if s.arch == ArchA64 {
		off = pos + 8
	} else {
		off = pos + 5
	}
	if !hasImm(op) {
		panic("native: PatchImm on op without imm field")
	}
	putLeU32(s.code[off:off+4], uint32(imm))
}

// locate returns the byte position and opcode of op index idx.
func (s *Assembler) locate(idx int) (int, uint8) {
	if s.arch == ArchA64 {
		pos := idx * a64InstSize
		return pos, s.code[pos]
	}
	pos := 0
	for i := 0; i < idx; i++ {
		pos += x64Size(s.code[pos])
	}
	return pos, s.code[pos]
}

// Finish produces the relocatable binary.
func (s *Assembler) Finish(name, sourceDigest string, stackSize uint32) *Binary {
	return &Binary{
		Arch:         s.arch,
		Code:         s.code,
		Relocs:       s.relocs,
		StackSize:    stackSize,
		SourceDigest: sourceDigest,
		Name:         name,
	}
}

// Decode parses machine code into the semantic instruction sequence.
// Both encodings decode to identical Inst streams.
func Decode(arch Arch, code []byte) ([]Inst, error) {
	var out []Inst
	switch arch {
	case ArchA64:
		if len(code)%a64InstSize != 0 {
			return nil, fmt.Errorf("native: a64 code length %d not a multiple of %d", len(code), a64InstSize)
		}
		for pos := 0; pos < len(code); pos += a64InstSize {
			b := code[pos : pos+a64InstSize]
			out = append(out, Inst{
				Op:    b[0],
				Flags: b[1],
				A:     b[2],
				B:     b[3],
				C:     b[4],
				Imm:   int32(leU32(b[8:12])),
				Ext:   leU64(b[16:24]),
			})
		}
	case ArchX64:
		pos := 0
		for pos < len(code) {
			if pos+5 > len(code) {
				return nil, fmt.Errorf("native: truncated x64 instruction at %d", pos)
			}
			i := Inst{Op: code[pos], Flags: code[pos+1], A: code[pos+2], B: code[pos+3], C: code[pos+4]}
			sz := x64Size(i.Op)
			if pos+sz > len(code) {
				return nil, fmt.Errorf("native: truncated x64 operands at %d", pos)
			}
			p := pos + 5
			if hasImm(i.Op) {
				i.Imm = int32(leU32(code[p : p+4]))
				p += 4
			}
			if hasExt(i.Op) {
				i.Ext = leU64(code[p : p+8])
			}
			out = append(out, i)
			pos += sz
		}
	default:
		return nil, fmt.Errorf("native: unknown arch %v", arch)
	}
	for idx, i := range out {
		if i.Op > OpRet {
			return nil, fmt.Errorf("native: op %d: unknown opcode %#x", idx, i.Op)
		}
	}
	return out, nil
}

// Link resolves a binary's relocations in place using resolve, which maps
// (kind, symbol) to an absolute node address. This is the §3.3 binary
// rewriting step — on the control plane it runs against the GOT snapshot
// exposed when the CodeFlow was created.
func Link(b *Binary, resolve func(kind RelocKind, symbol string) (uint64, bool)) error {
	for _, r := range b.Relocs {
		if int(r.Offset)+8 > len(b.Code) {
			return fmt.Errorf("native: reloc offset %d beyond code of %d bytes", r.Offset, len(b.Code))
		}
		addr, ok := resolve(r.Kind, r.Symbol)
		if !ok {
			return fmt.Errorf("native: unresolved %v symbol %q", r.Kind, r.Symbol)
		}
		putLeU64(b.Code[r.Offset:], addr)
	}
	return nil
}
