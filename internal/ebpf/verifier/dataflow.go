package verifier

import (
	"rdx/internal/ebpf"
	"rdx/internal/xabi"
)

// dataflow runs the abstract interpretation in one pass: buildCFG proved the
// CFG acyclic and fully reachable, so in topological order each instruction is
// stepped once, on the join of all its predecessors' outputs.
func (v *vstate) dataflow() error {
	insns := v.prog.Insns
	v.states = sized(v.states, len(insns))
	entry := v.newState()
	*entry = absState{}
	entry.regs[ebpf.R1] = regState{typ: tCtxPtr}
	entry.regs[ebpf.R10] = regState{typ: tStackPtr}
	v.states[0] = entry

	for k := len(v.order) - 1; k >= 0; k-- {
		idx := v.order[k]
		st := v.states[idx] // joined over every predecessor: they all precede idx

		// Simulate in place, producing per-successor output states.
		outs, err := v.step(int(idx), insns[idx], st)
		if err != nil {
			return err
		}
		if target := v.succs[idx][1]; target >= 0 {
			taken := outs[1]
			if taken == nil {
				taken = v.newState()
				*taken = *st
			}
			v.flow(target, taken)
		}
		if fall := v.succs[idx][0]; fall >= 0 {
			v.flow(fall, st)
		} else {
			v.free = append(v.free, st)
		}
	}
	return nil
}

// flow folds out into succ's input state, or becomes it; either way it owns out.
func (v *vstate) flow(succ int32, out *absState) {
	if v.states[succ] == nil {
		v.states[succ] = out
		return
	}
	join(v.states[succ], out)
	v.free = append(v.free, out)
}

// step simulates one instruction over st in place, returning output states for
// the fallthrough edge (index 0, st itself) and branch-taken edge (index 1, nil to reuse).
func (v *vstate) step(idx int, ins ebpf.Instruction, st *absState) ([2]*absState, error) {
	var outs [2]*absState
	outs[0] = st

	requireInit := func(r uint8) error {
		if st.regs[r].typ == tUninit {
			return errAt(idx, ins, "r%d used before initialization", r)
		}
		return nil
	}

	switch ins.Class() {
	case ebpf.ClassALU, ebpf.ClassALU64:
		return outs, v.stepALU(idx, ins, st)

	case ebpf.ClassLD: // LDDW pair
		if v.isCont[idx] {
			return outs, nil // continuation slot: no-op
		}
		if ins.Src == ebpf.PseudoMapFD {
			st.regs[ins.Dst] = regState{typ: tMapHandle, mapIdx: ins.Imm}
		} else {
			lo := uint64(uint32(ins.Imm))
			hi := uint64(uint32(v.prog.Insns[idx+1].Imm))
			st.regs[ins.Dst] = constScalar(int64(lo | hi<<32))
		}
		return outs, nil

	case ebpf.ClassLDX:
		if err := requireInit(ins.Src); err != nil {
			return outs, err
		}
		size := ins.MemSize()
		if err := v.checkMemAccess(idx, ins, st, ins.Src, int64(ins.Off), size, false); err != nil {
			return outs, err
		}
		st.regs[ins.Dst] = scalar()
		return outs, nil

	case ebpf.ClassSTX:
		if err := requireInit(ins.Src); err != nil {
			return outs, err
		}
		if err := requireInit(ins.Dst); err != nil {
			return outs, err
		}
		if st.regs[ins.Src].typ != tScalar {
			// Spilling pointers is not supported by this verifier;
			// reject rather than lose track of them.
			return outs, errAt(idx, ins, "storing %s is not allowed (only scalars may be stored)", st.regs[ins.Src].typ)
		}
		return outs, v.checkMemAccess(idx, ins, st, ins.Dst, int64(ins.Off), ins.MemSize(), true)

	case ebpf.ClassST:
		if err := requireInit(ins.Dst); err != nil {
			return outs, err
		}
		return outs, v.checkMemAccess(idx, ins, st, ins.Dst, int64(ins.Off), ins.MemSize(), true)

	case ebpf.ClassJMP:
		switch ins.JmpOp() {
		case ebpf.JmpExit:
			if st.regs[ebpf.R0].typ == tUninit {
				return outs, errAt(idx, ins, "R0 not set before exit")
			}
			return outs, nil
		case ebpf.JmpJA:
			return outs, nil
		case ebpf.JmpCall:
			return outs, v.stepCall(idx, ins, st)
		default:
			return v.stepBranch(idx, ins, st)
		}
	}
	return outs, errAt(idx, ins, "unhandled instruction class")
}

func (v *vstate) stepALU(idx int, ins ebpf.Instruction, st *absState) error {
	op := ins.AluOp()
	dst := &st.regs[ins.Dst]

	if ins.Dst == ebpf.R10 {
		return errAt(idx, ins, "R10 (frame pointer) is read-only")
	}

	// Source operand.
	var src regState
	if ins.UsesX() {
		src = st.regs[ins.Src]
		if src.typ == tUninit {
			return errAt(idx, ins, "r%d used before initialization", ins.Src)
		}
	} else {
		src = constScalar(int64(ins.Imm))
	}

	if op == ebpf.AluMov {
		if ins.Class() == ebpf.ClassALU {
			// 32-bit MOV truncates; pointers lose their provenance,
			// which we reject to keep pointers trackable.
			if src.typ != tScalar {
				return errAt(idx, ins, "32-bit MOV of %s", src.typ)
			}
			trunc := src
			if trunc.constKnown {
				trunc.constVal = int64(uint32(trunc.constVal))
			}
			*dst = trunc
			return nil
		}
		*dst = src
		return nil
	}

	if op == ebpf.AluNeg {
		if dst.typ != tScalar {
			return errAt(idx, ins, "NEG of %s", dst.typ)
		}
		if dst.constKnown {
			dst.constVal = -dst.constVal
		}
		return nil
	}

	if dst.typ == tUninit {
		return errAt(idx, ins, "r%d used before initialization", ins.Dst)
	}

	// Pointer arithmetic: only 64-bit ADD/SUB of a known scalar onto a
	// pointer, tracked through the offset (the kernel is more general;
	// this subset is what the toolchain emits).
	if isPtr(dst.typ) {
		if ins.Class() != ebpf.ClassALU64 || (op != ebpf.AluAdd && op != ebpf.AluSub) {
			return errAt(idx, ins, "%s on pointer %s", aluOpName(op), dst.typ)
		}
		if src.typ != tScalar || !src.constKnown {
			return errAt(idx, ins, "pointer arithmetic requires a constant scalar")
		}
		if op == ebpf.AluAdd {
			dst.off += src.constVal
		} else {
			dst.off -= src.constVal
		}
		return nil
	}
	if isPtr(src.typ) {
		return errAt(idx, ins, "%s with pointer source %s", aluOpName(op), src.typ)
	}
	if dst.typ == tMapHandle || src.typ == tMapHandle {
		return errAt(idx, ins, "arithmetic on map handle")
	}

	// Scalar op scalar: fold constants where both are known.
	if dst.constKnown && src.constKnown {
		folded, ok := foldConst(op, ins.Class() == ebpf.ClassALU, dst.constVal, src.constVal)
		if ok {
			*dst = constScalar(folded)
			return nil
		}
	}
	// Division/modulo by a register that could be zero is defined as 0 by
	// the ABI (like BPF), so no rejection is needed here.
	*dst = scalar()
	return nil
}

func aluOpName(op uint8) string {
	switch op {
	case ebpf.AluAdd:
		return "ADD"
	case ebpf.AluSub:
		return "SUB"
	case ebpf.AluMul:
		return "MUL"
	case ebpf.AluDiv:
		return "DIV"
	case ebpf.AluOr:
		return "OR"
	case ebpf.AluAnd:
		return "AND"
	case ebpf.AluLsh:
		return "LSH"
	case ebpf.AluRsh:
		return "RSH"
	case ebpf.AluMod:
		return "MOD"
	case ebpf.AluXor:
		return "XOR"
	case ebpf.AluArsh:
		return "ARSH"
	}
	return "ALU"
}

func isPtr(t regType) bool {
	return t == tCtxPtr || t == tStackPtr || t == tMapValue
}

func foldConst(op uint8, is32 bool, a, b int64) (int64, bool) {
	var r int64
	switch op {
	case ebpf.AluAdd:
		r = a + b
	case ebpf.AluSub:
		r = a - b
	case ebpf.AluMul:
		r = a * b
	case ebpf.AluDiv:
		if b == 0 {
			r = 0
		} else {
			r = int64(uint64(a) / uint64(b))
		}
	case ebpf.AluMod:
		if b == 0 {
			r = a
		} else {
			r = int64(uint64(a) % uint64(b))
		}
	case ebpf.AluOr:
		r = a | b
	case ebpf.AluAnd:
		r = a & b
	case ebpf.AluXor:
		r = a ^ b
	case ebpf.AluLsh:
		r = int64(uint64(a) << (uint64(b) & 63))
	case ebpf.AluRsh:
		r = int64(uint64(a) >> (uint64(b) & 63))
	case ebpf.AluArsh:
		r = a >> (uint64(b) & 63)
	default:
		return 0, false
	}
	if is32 {
		r = int64(uint32(r))
	}
	return r, true
}

// checkMemAccess validates a load (write=false) or store (write=true) of
// size bytes through register reg at the given displacement.
func (v *vstate) checkMemAccess(idx int, ins ebpf.Instruction, st *absState, reg uint8, disp int64, size int, write bool) error {
	r := st.regs[reg]
	switch r.typ {
	case tStackPtr:
		off := r.off + disp // negative: stack grows down from R10
		if off < -int64(xabi.StackSize) || off+int64(size) > 0 {
			return errAt(idx, ins, "stack access at fp%+d size %d out of [-%d, 0)", off, size, xabi.StackSize)
		}
		if off%int64(size) != 0 {
			return errAt(idx, ins, "misaligned stack access at fp%+d size %d", off, size)
		}
		slot := int(off + int64(xabi.StackSize))
		if write {
			st.stackInit(slot, size)
		} else if !st.stackAllInit(slot, size) {
			return errAt(idx, ins, "read of uninitialized stack at fp%+d", off)
		}
		if d := int(-off); d > v.res.StackDepth {
			v.res.StackDepth = d
		}
		return nil

	case tCtxPtr:
		off := r.off + disp
		if off < 0 || off+int64(size) > int64(xabi.CtxSize) {
			return errAt(idx, ins, "ctx access at %+d size %d out of [0, %d)", off, size, xabi.CtxSize)
		}
		if off%int64(size) != 0 {
			return errAt(idx, ins, "misaligned ctx access at %+d size %d", off, size)
		}
		if write {
			// Only the verdict slot is extension-writable.
			if off < xabi.CtxOffVerdict || off+int64(size) > xabi.CtxOffVerdict+4 {
				return errAt(idx, ins, "ctx write at %+d outside the verdict slot", off)
			}
			v.res.WritesCtx = true
		}
		if int(off)+size > v.res.MaxCtxOffset {
			v.res.MaxCtxOffset = int(off) + size
		}
		return nil

	case tMapValue:
		valSize := int64(v.prog.Maps[r.mapIdx].ValueSize)
		off := r.off + disp
		if off < 0 || off+int64(size) > valSize {
			return errAt(idx, ins, "map value access at %+d size %d out of [0, %d)", off, size, valSize)
		}
		return nil

	case tMapValueOrNull:
		return errAt(idx, ins, "map value may be null: add a null check before dereferencing")

	case tUninit:
		return errAt(idx, ins, "r%d used before initialization", reg)

	default:
		return errAt(idx, ins, "cannot dereference %s in r%d", r.typ, reg)
	}
}

// helper argument/return signatures.
type helperSig struct {
	args []argKind
	ret  retKind
}

type argKind uint8

const (
	argScalar argKind = iota
	argMapHandle
	argKeyPtr   // stack pointer to an initialized key
	argValuePtr // stack pointer to an initialized value
	argAny
)

type retKind uint8

const (
	retScalar retKind = iota
	retMapValueOrNull
)

var helperSigs = map[int32]helperSig{
	xabi.HelperMapLookup:     {args: []argKind{argMapHandle, argKeyPtr}, ret: retMapValueOrNull},
	xabi.HelperMapUpdate:     {args: []argKind{argMapHandle, argKeyPtr, argValuePtr, argScalar}, ret: retScalar},
	xabi.HelperMapDelete:     {args: []argKind{argMapHandle, argKeyPtr}, ret: retScalar},
	xabi.HelperKtimeGetNS:    {ret: retScalar},
	xabi.HelperTracePrintk:   {args: []argKind{argScalar}, ret: retScalar},
	xabi.HelperGetPrandomU32: {ret: retScalar},
	xabi.HelperGetSmpCPUID:   {ret: retScalar},
	xabi.HelperGetHeader:     {args: []argKind{argScalar}, ret: retScalar},
	xabi.HelperSetHeader:     {args: []argKind{argScalar, argScalar}, ret: retScalar},
	xabi.HelperLog:           {args: []argKind{argScalar}, ret: retScalar},
	xabi.HelperGetBodyLen:    {ret: retScalar},
}

func (v *vstate) stepCall(idx int, ins ebpf.Instruction, st *absState) error {
	sig, ok := helperSigs[ins.Imm]
	if !ok {
		return errAt(idx, ins, "unknown helper %d", ins.Imm)
	}
	var mapIdx int32 = -1
	for a, kind := range sig.args {
		reg := uint8(ebpf.R1 + a)
		r := st.regs[reg]
		if r.typ == tUninit {
			return errAt(idx, ins, "helper %s: r%d uninitialized", xabi.HelperName(int(ins.Imm)), reg)
		}
		switch kind {
		case argScalar:
			if r.typ != tScalar {
				return errAt(idx, ins, "helper %s: r%d must be scalar, got %s", xabi.HelperName(int(ins.Imm)), reg, r.typ)
			}
		case argMapHandle:
			if r.typ != tMapHandle {
				return errAt(idx, ins, "helper %s: r%d must be a map reference, got %s", xabi.HelperName(int(ins.Imm)), reg, r.typ)
			}
			mapIdx = r.mapIdx
		case argKeyPtr, argValuePtr:
			if r.typ != tStackPtr {
				return errAt(idx, ins, "helper %s: r%d must point to the stack, got %s", xabi.HelperName(int(ins.Imm)), reg, r.typ)
			}
			if mapIdx < 0 {
				return errAt(idx, ins, "helper %s: key/value pointer without map argument", xabi.HelperName(int(ins.Imm)))
			}
			need := v.prog.Maps[mapIdx].KeySize
			if kind == argValuePtr {
				need = v.prog.Maps[mapIdx].ValueSize
			}
			off := r.off
			if off < -int64(xabi.StackSize) || off+int64(need) > 0 {
				return errAt(idx, ins, "helper %s: buffer [fp%+d,+%d) outside stack", xabi.HelperName(int(ins.Imm)), off, need)
			}
			slot := int(off + int64(xabi.StackSize))
			if !st.stackAllInit(slot, need) {
				return errAt(idx, ins, "helper %s: buffer at fp%+d not fully initialized", xabi.HelperName(int(ins.Imm)), off)
			}
			if d := int(-off); d > v.res.StackDepth {
				v.res.StackDepth = d
			}
		}
	}
	switch ins.Imm {
	case xabi.HelperMapLookup:
		v.res.UsesMapLookup = true
	case xabi.HelperMapUpdate, xabi.HelperMapDelete:
		v.res.UsesMapUpdate = true
	}
	// Caller-saved registers are clobbered.
	for r := ebpf.R1; r <= ebpf.R5; r++ {
		st.regs[r] = regState{typ: tUninit}
	}
	if sig.ret == retMapValueOrNull {
		st.regs[ebpf.R0] = regState{typ: tMapValueOrNull, mapIdx: mapIdx}
	} else {
		st.regs[ebpf.R0] = scalar()
	}
	return nil
}

// stepBranch handles conditional jumps, refining map-value-or-null types on
// equality comparisons against zero.
func (v *vstate) stepBranch(idx int, ins ebpf.Instruction, st *absState) ([2]*absState, error) {
	var outs [2]*absState
	dst := st.regs[ins.Dst]
	if dst.typ == tUninit {
		return outs, errAt(idx, ins, "r%d used before initialization", ins.Dst)
	}
	var srcTyp regType = tScalar
	if ins.UsesX() {
		srcTyp = st.regs[ins.Src].typ
		if srcTyp == tUninit {
			return outs, errAt(idx, ins, "r%d used before initialization", ins.Src)
		}
	}

	// Comparing a possibly-null map value against zero refines the type on
	// both edges. Any other use of a non-scalar in a comparison is only
	// allowed for same-type pointers (kernel allows ptr==ptr).
	isNullCheck := dst.typ == tMapValueOrNull && !ins.UsesX() && ins.Imm == 0 &&
		(ins.JmpOp() == ebpf.JmpJEQ || ins.JmpOp() == ebpf.JmpJNE)
	if isNullCheck {
		fall, taken := st, v.newState()
		*taken = *st
		nonNull := regState{typ: tMapValue, mapIdx: dst.mapIdx}
		null := constScalar(0)
		if ins.JmpOp() == ebpf.JmpJEQ {
			// taken: value == 0 (null); fallthrough: non-null.
			taken.regs[ins.Dst] = null
			fall.regs[ins.Dst] = nonNull
		} else {
			taken.regs[ins.Dst] = nonNull
			fall.regs[ins.Dst] = null
		}
		outs[0], outs[1] = fall, taken
		return outs, nil
	}

	if dst.typ != tScalar || srcTyp != tScalar {
		if dst.typ != srcTyp {
			return outs, errAt(idx, ins, "comparison between %s and %s", dst.typ, srcTyp)
		}
	}
	outs[0] = st
	return outs, nil
}
