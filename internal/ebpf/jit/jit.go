// Package jit compiles eBPF programs to the simulated native ISA, producing
// relocatable binaries with symbol tables — the control-plane side of the
// paper's §3.2 "validate once, compile per architecture, deploy anywhere"
// pipeline.
//
// The compiler performs a two-pass translation: a first pass maps eBPF
// instruction indexes to native op indexes (LDDW pairs collapse to one op),
// a second pass emits code with jump targets rewritten. Helper calls and
// map references are emitted as placeholder 64-bit operands with relocation
// entries; the linker later patches them with node-specific addresses from
// the GOT snapshot (§3.3).
package jit

import (
	"fmt"

	"rdx/internal/ebpf"
	"rdx/internal/native"
	"rdx/internal/xabi"
)

// HelperSymbol returns the relocation symbol for helper id.
func HelperSymbol(id int) string {
	return "helper:" + xabi.HelperName(id)
}

// MapSymbol returns the relocation symbol for a program's map reference.
func MapSymbol(name string) string {
	return "map:" + name
}

// Compile translates p for the given target architecture. The program must
// already have passed verification; Compile performs only the structural
// checks it needs to translate safely and returns an error on malformed
// input rather than re-proving safety.
func Compile(p *ebpf.Program, arch native.Arch) (*native.Binary, error) {
	return CompileWithDigest(p, p.Digest(), arch)
}

// CompileWithDigest is Compile for a caller that already holds p.Digest()
// (an extension memoizes it), so a cold compile does not hash the program
// again; digest is stamped into the binary as is.
func CompileWithDigest(p *ebpf.Program, digest string, arch native.Arch) (*native.Binary, error) {
	insns := p.Insns
	if len(insns) == 0 {
		return nil, fmt.Errorf("jit: empty program")
	}

	// Pass 1: eBPF slot index → native op index.
	nativeIdx := make([]int32, len(insns)+1)
	var n int32
	for i := 0; i < len(insns); i++ {
		nativeIdx[i] = n
		n++
		if insns[i].IsLDDW() {
			if i+1 >= len(insns) {
				return nil, fmt.Errorf("jit: LDDW at %d missing second slot", i)
			}
			nativeIdx[i+1] = n // jumps may not target this; verifier ensures it
			i++
		}
	}
	nativeIdx[len(insns)] = n

	// Pass 2: emit.
	asm := native.NewAssembler(arch, int(n))
	for i := 0; i < len(insns); i++ {
		ins := insns[i]
		switch ins.Class() {
		case ebpf.ClassALU, ebpf.ClassALU64:
			if err := emitALU(asm, ins); err != nil {
				return nil, fmt.Errorf("jit: insn %d: %w", i, err)
			}

		case ebpf.ClassLD: // LDDW
			if ins.Src == ebpf.PseudoMapFD {
				mi := int(ins.Imm)
				if mi < 0 || mi >= len(p.Maps) {
					return nil, fmt.Errorf("jit: insn %d: map index %d out of range", i, mi)
				}
				asm.EmitReloc(native.Inst{Op: native.OpMovRI, A: ins.Dst},
					native.RelocMap, MapSymbol(p.Maps[mi].Name))
			} else {
				asm.Emit(native.Inst{Op: native.OpMovRI, A: ins.Dst, Ext: ebpf.Imm64(ins, insns[i+1])})
			}
			i++ // consume second slot

		case ebpf.ClassLDX:
			asm.Emit(native.Inst{Op: native.OpLoad, A: ins.Dst, B: ins.Src,
				C: uint8(ins.MemSize()), Imm: int32(ins.Off)})

		case ebpf.ClassSTX:
			asm.Emit(native.Inst{Op: native.OpStore, A: ins.Src, B: ins.Dst,
				C: uint8(ins.MemSize()), Imm: int32(ins.Off)})

		case ebpf.ClassST:
			asm.Emit(native.Inst{Op: native.OpStoreI, B: ins.Dst,
				C: uint8(ins.MemSize()), Imm: int32(ins.Off), Ext: uint64(int64(ins.Imm))})

		case ebpf.ClassJMP:
			switch ins.JmpOp() {
			case ebpf.JmpExit:
				asm.Emit(native.Inst{Op: native.OpRet})
			case ebpf.JmpCall:
				asm.EmitReloc(native.Inst{Op: native.OpCall},
					native.RelocHelper, HelperSymbol(int(ins.Imm)))
			case ebpf.JmpJA:
				t := i + 1 + int(ins.Off)
				if t < 0 || t > len(insns) {
					return nil, fmt.Errorf("jit: insn %d: jump target %d out of range", i, t)
				}
				asm.Emit(native.Inst{Op: native.OpJmp, C: native.CondAlways, Imm: nativeIdx[t]})
			default:
				c, err := condFor(ins.JmpOp())
				if err != nil {
					return nil, fmt.Errorf("jit: insn %d: %w", i, err)
				}
				t := i + 1 + int(ins.Off)
				if t < 0 || t > len(insns) {
					return nil, fmt.Errorf("jit: insn %d: branch target %d out of range", i, t)
				}
				if ins.UsesX() {
					asm.Emit(native.Inst{Op: native.OpJmp, A: ins.Dst, B: ins.Src,
						C: c, Imm: nativeIdx[t]})
				} else {
					asm.Emit(native.Inst{Op: native.OpJmpI, A: ins.Dst, C: c,
						Imm: nativeIdx[t], Ext: uint64(int64(ins.Imm))})
				}
			}

		default:
			return nil, fmt.Errorf("jit: insn %d: unsupported class %#x", i, ins.Class())
		}
	}

	return asm.Finish(p.Name, digest, uint32(xabi.StackSize)), nil
}

func emitALU(asm *native.Assembler, ins ebpf.Instruction) error {
	var flags uint8
	if ins.Class() == ebpf.ClassALU {
		flags = native.Flag32
	}
	op, err := aluFor(ins.AluOp())
	if err != nil {
		return err
	}
	// 64-bit MOVs get dedicated ops; everything else goes through ALU.
	if ins.AluOp() == ebpf.AluMov && flags == 0 {
		if ins.UsesX() {
			asm.Emit(native.Inst{Op: native.OpMovRR, A: ins.Dst, B: ins.Src})
		} else {
			asm.Emit(native.Inst{Op: native.OpMovRI, A: ins.Dst, Ext: uint64(int64(ins.Imm))})
		}
		return nil
	}
	if ins.AluOp() == ebpf.AluNeg {
		asm.Emit(native.Inst{Op: native.OpAluRI, A: ins.Dst, C: native.AluNeg, Flags: flags})
		return nil
	}
	if ins.UsesX() {
		asm.Emit(native.Inst{Op: native.OpAluRR, A: ins.Dst, B: ins.Src, C: op, Flags: flags})
	} else {
		asm.Emit(native.Inst{Op: native.OpAluRI, A: ins.Dst, C: op, Flags: flags, Imm: ins.Imm})
	}
	return nil
}

func aluFor(op uint8) (uint8, error) {
	switch op {
	case ebpf.AluAdd:
		return native.AluAdd, nil
	case ebpf.AluSub:
		return native.AluSub, nil
	case ebpf.AluMul:
		return native.AluMul, nil
	case ebpf.AluDiv:
		return native.AluDiv, nil
	case ebpf.AluMod:
		return native.AluMod, nil
	case ebpf.AluOr:
		return native.AluOr, nil
	case ebpf.AluAnd:
		return native.AluAnd, nil
	case ebpf.AluXor:
		return native.AluXor, nil
	case ebpf.AluLsh:
		return native.AluLsh, nil
	case ebpf.AluRsh:
		return native.AluRsh, nil
	case ebpf.AluArsh:
		return native.AluArsh, nil
	case ebpf.AluNeg:
		return native.AluNeg, nil
	case ebpf.AluMov:
		return native.AluMov, nil
	default:
		return 0, fmt.Errorf("unknown ALU op %#x", op)
	}
}

func condFor(op uint8) (uint8, error) {
	switch op {
	case ebpf.JmpJEQ:
		return native.CondEQ, nil
	case ebpf.JmpJNE:
		return native.CondNE, nil
	case ebpf.JmpJGT:
		return native.CondGT, nil
	case ebpf.JmpJGE:
		return native.CondGE, nil
	case ebpf.JmpJLT:
		return native.CondLT, nil
	case ebpf.JmpJLE:
		return native.CondLE, nil
	case ebpf.JmpJSET:
		return native.CondSET, nil
	case ebpf.JmpJSGT:
		return native.CondSGT, nil
	case ebpf.JmpJSGE:
		return native.CondSGE, nil
	case ebpf.JmpJSLT:
		return native.CondSLT, nil
	case ebpf.JmpJSLE:
		return native.CondSLE, nil
	default:
		return 0, fmt.Errorf("unknown JMP op %#x", op)
	}
}
