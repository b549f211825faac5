package native

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"rdx/internal/xabi"
)

func TestEncodingRoundTripBothArches(t *testing.T) {
	insts := []Inst{
		{Op: OpNop},
		{Op: OpMovRR, A: 1, B: 2},
		{Op: OpMovRI, A: 3, Ext: 0xDEADBEEF12345678},
		{Op: OpAluRR, A: 1, B: 2, C: AluXor, Flags: Flag32},
		{Op: OpAluRI, A: 4, C: AluAdd, Imm: -1000},
		{Op: OpLoad, A: 0, B: 1, C: 8, Imm: 16},
		{Op: OpStore, A: 2, B: 10, C: 4, Imm: -8},
		{Op: OpStoreI, B: 10, C: 8, Imm: -16, Ext: 42},
		{Op: OpJmp, A: 1, B: 2, C: CondSGT, Imm: 7},
		{Op: OpJmpI, A: 1, C: CondEQ, Imm: 3, Ext: 99},
		{Op: OpCall, Ext: 0x1000},
		{Op: OpRet},
	}
	for _, arch := range []Arch{ArchX64, ArchA64} {
		asm := NewAssembler(arch, 0)
		for _, i := range insts {
			asm.Emit(i)
		}
		bin := asm.Finish("t", "digest", 512)
		got, err := Decode(arch, bin.Code)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if len(got) != len(insts) {
			t.Fatalf("%v: decoded %d insts, want %d", arch, len(got), len(insts))
		}
		for j := range insts {
			if got[j] != insts[j] {
				t.Errorf("%v inst %d: got %+v want %+v", arch, j, got[j], insts[j])
			}
		}
	}
}

func TestEncodingsDiffer(t *testing.T) {
	// The whole point of two arches: same semantics, different bytes.
	emit := func(arch Arch) []byte {
		asm := NewAssembler(arch, 0)
		asm.Emit(Inst{Op: OpMovRI, A: 0, Ext: 5})
		asm.Emit(Inst{Op: OpRet})
		return asm.Finish("t", "d", 0).Code
	}
	x, a := emit(ArchX64), emit(ArchA64)
	if len(x) == len(a) {
		t.Errorf("encodings have identical length %d; expected variable vs fixed", len(x))
	}
}

func TestRelocOffsetsArchSpecific(t *testing.T) {
	build := func(arch Arch) *Binary {
		asm := NewAssembler(arch, 0)
		asm.Emit(Inst{Op: OpMovRR, A: 1, B: 2})
		asm.EmitReloc(Inst{Op: OpCall}, RelocHelper, "helper:ktime_get_ns")
		asm.Emit(Inst{Op: OpRet})
		return asm.Finish("t", "d", 0)
	}
	x, a := build(ArchX64), build(ArchA64)
	if len(x.Relocs) != 1 || len(a.Relocs) != 1 {
		t.Fatalf("reloc counts: %d %d", len(x.Relocs), len(a.Relocs))
	}
	if x.Relocs[0].Offset == a.Relocs[0].Offset {
		t.Errorf("reloc offsets identical (%d); arch encodings should differ", x.Relocs[0].Offset)
	}
	// Both must point at the placeholder.
	for _, b := range []*Binary{x, a} {
		if leU64(b.Code[b.Relocs[0].Offset:]) != PlaceholderValue {
			t.Errorf("%v reloc does not point at placeholder", b.Arch)
		}
		if b.Linked() {
			t.Errorf("%v binary claims linked before linking", b.Arch)
		}
	}
}

func TestLink(t *testing.T) {
	asm := NewAssembler(ArchA64, 0)
	asm.EmitReloc(Inst{Op: OpCall}, RelocHelper, "helper:ktime_get_ns")
	asm.EmitReloc(Inst{Op: OpMovRI, A: 1}, RelocMap, "map:flows")
	asm.Emit(Inst{Op: OpRet})
	bin := asm.Finish("t", "d", 0)

	err := Link(bin, func(kind RelocKind, sym string) (uint64, bool) {
		switch {
		case kind == RelocHelper && sym == "helper:ktime_get_ns":
			return 0xAA00, true
		case kind == RelocMap && sym == "map:flows":
			return 0xBB00, true
		}
		return 0, false
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bin.Linked() {
		t.Error("binary not linked after Link")
	}
	insts, _ := Decode(ArchA64, bin.Code)
	if insts[0].Ext != 0xAA00 || insts[1].Ext != 0xBB00 {
		t.Errorf("patched operands: %#x %#x", insts[0].Ext, insts[1].Ext)
	}
}

func TestLinkUnresolvedSymbol(t *testing.T) {
	asm := NewAssembler(ArchX64, 0)
	asm.EmitReloc(Inst{Op: OpCall}, RelocHelper, "helper:nope")
	asm.Emit(Inst{Op: OpRet})
	bin := asm.Finish("t", "d", 0)
	err := Link(bin, func(RelocKind, string) (uint64, bool) { return 0, false })
	if err == nil || !strings.Contains(err.Error(), "unresolved") {
		t.Errorf("err = %v", err)
	}
}

func TestRunUnlinkedTraps(t *testing.T) {
	asm := NewAssembler(ArchA64, 0)
	asm.EmitReloc(Inst{Op: OpCall}, RelocHelper, "helper:ktime_get_ns")
	asm.Emit(Inst{Op: OpRet})
	bin := asm.Finish("t", "d", 0)
	p, err := DecodeProgram(bin.Arch, bin.Code)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{}
	if _, err := e.Run(p, &xabi.Env{}, nil); !errors.Is(err, ErrUnlinked) {
		t.Errorf("err = %v, want ErrUnlinked", err)
	}
}

func TestEngineBasicProgram(t *testing.T) {
	// r0 = (5 + 7) * 2 computed through the stack.
	asm := NewAssembler(ArchX64, 0)
	asm.Emit(Inst{Op: OpMovRI, A: 0, Ext: 5})
	asm.Emit(Inst{Op: OpAluRI, A: 0, C: AluAdd, Imm: 7})
	asm.Emit(Inst{Op: OpStore, A: 0, B: 10, C: 8, Imm: -8})
	asm.Emit(Inst{Op: OpLoad, A: 1, B: 10, C: 8, Imm: -8})
	asm.Emit(Inst{Op: OpAluRR, A: 0, C: AluAdd, B: 1})
	asm.Emit(Inst{Op: OpRet})
	bin := asm.Finish("t", "d", 0)
	p, _ := DecodeProgram(bin.Arch, bin.Code)
	r0, err := (&Engine{}).Run(p, &xabi.Env{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r0 != 24 {
		t.Errorf("r0 = %d, want 24", r0)
	}
}

func TestEngineHelperByAddress(t *testing.T) {
	const addr = 0xC0FFEE00
	asm := NewAssembler(ArchA64, 0)
	asm.Emit(Inst{Op: OpMovRI, A: 1, Ext: 21})
	asm.Emit(Inst{Op: OpCall, Ext: addr})
	asm.Emit(Inst{Op: OpRet})
	bin := asm.Finish("t", "d", 0)
	p, _ := DecodeProgram(bin.Arch, bin.Code)

	e := &Engine{HelperAddrs: map[uint64]xabi.HelperFn{
		addr: func(_ *xabi.Env, a1, _, _, _, _ uint64) (uint64, error) { return a1 * 2, nil },
	}}
	r0, err := e.Run(p, &xabi.Env{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r0 != 42 {
		t.Errorf("r0 = %d", r0)
	}
	// Call to unmapped address must trap.
	e2 := &Engine{}
	if _, err := e2.Run(p, &xabi.Env{}, nil); err == nil || !strings.Contains(err.Error(), "unmapped") {
		t.Errorf("unmapped call: %v", err)
	}
}

func TestEngineFuel(t *testing.T) {
	asm := NewAssembler(ArchX64, 0)
	asm.Emit(Inst{Op: OpJmp, C: CondAlways, Imm: 0}) // spin
	bin := asm.Finish("t", "d", 0)
	p, _ := DecodeProgram(bin.Arch, bin.Code)
	e := &Engine{Fuel: 100}
	if _, err := e.Run(p, &xabi.Env{}, nil); !errors.Is(err, ErrFuel) {
		t.Errorf("err = %v", err)
	}
}

func TestEngineCtxAccess(t *testing.T) {
	ctx := make([]byte, xabi.CtxSize)
	ctx[0] = 0x2A
	asm := NewAssembler(ArchA64, 0)
	asm.Emit(Inst{Op: OpLoad, A: 0, B: 1, C: 1, Imm: 0}) // r0 = ctx[0]
	asm.Emit(Inst{Op: OpStoreI, B: 1, C: 4, Imm: int32(xabi.CtxOffVerdict), Ext: 7})
	asm.Emit(Inst{Op: OpRet})
	bin := asm.Finish("t", "d", 0)
	p, _ := DecodeProgram(bin.Arch, bin.Code)
	r0, err := (&Engine{}).Run(p, &xabi.Env{}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r0 != 0x2A {
		t.Errorf("r0 = %#x", r0)
	}
	if ctx[xabi.CtxOffVerdict] != 7 {
		t.Error("verdict not written back")
	}
}

func TestEngineFaults(t *testing.T) {
	asm := NewAssembler(ArchX64, 0)
	asm.Emit(Inst{Op: OpMovRI, A: 1, Ext: 0x40})
	asm.Emit(Inst{Op: OpLoad, A: 0, B: 1, C: 8, Imm: 0})
	asm.Emit(Inst{Op: OpRet})
	bin := asm.Finish("t", "d", 0)
	p, _ := DecodeProgram(bin.Arch, bin.Code)
	if _, err := (&Engine{}).Run(p, &xabi.Env{}, nil); !errors.Is(err, xabi.ErrFault) {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(ArchA64, make([]byte, 23)); err == nil {
		t.Error("odd-length a64 accepted")
	}
	if _, err := Decode(ArchX64, []byte{OpMovRI, 0, 0}); err == nil {
		t.Error("truncated x64 accepted")
	}
	bad := make([]byte, a64InstSize)
	bad[0] = 0x7F
	if _, err := Decode(ArchA64, bad); err == nil {
		t.Error("unknown opcode accepted")
	}
	if _, err := Decode(Arch(9), nil); err == nil {
		t.Error("unknown arch accepted")
	}
}

func TestParseArch(t *testing.T) {
	for s, want := range map[string]Arch{"x64": ArchX64, "amd64": ArchX64, "arm64": ArchA64, "aarch64": ArchA64} {
		got, err := ParseArch(s)
		if err != nil || got != want {
			t.Errorf("ParseArch(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseArch("mips"); err == nil {
		t.Error("unknown arch name accepted")
	}
}

func TestAluProperty(t *testing.T) {
	// 32-bit ops always zero-extend.
	f := func(op8 uint8, a, b uint64) bool {
		op := op8 % (AluMov + 1)
		out := alu(op, true, a, b)
		return out == uint64(uint32(out))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinaryClone(t *testing.T) {
	asm := NewAssembler(ArchX64, 0)
	asm.EmitReloc(Inst{Op: OpCall}, RelocHelper, "helper:x")
	asm.Emit(Inst{Op: OpRet})
	bin := asm.Finish("t", "d", 0)
	cp := bin.Clone()
	cp.Code[0] = 0xFF
	cp.Relocs[0].Symbol = "changed"
	if bin.Code[0] == 0xFF || bin.Relocs[0].Symbol == "changed" {
		t.Error("clone shares storage")
	}
}

func TestPatchImm(t *testing.T) {
	for _, arch := range []Arch{ArchX64, ArchA64} {
		asm := NewAssembler(arch, 0)
		asm.Emit(Inst{Op: OpMovRI, A: 0, Ext: 1})
		idx := asm.Emit(Inst{Op: OpJmp, C: CondAlways, Imm: -1}) // placeholder target
		asm.Emit(Inst{Op: OpRet})
		asm.PatchImm(idx, 2)
		bin := asm.Finish("t", "d", 0)
		insts, err := Decode(arch, bin.Code)
		if err != nil {
			t.Fatal(err)
		}
		if insts[1].Imm != 2 {
			t.Errorf("%v: patched imm = %d", arch, insts[1].Imm)
		}
	}
}
