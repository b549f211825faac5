package wasm

import (
	"fmt"

	"rdx/internal/native"
)

// GOT symbols a compiled filter needs resolved at link time.
const (
	SymMemory  = "wasm:memory"  // linear memory base for this deployment
	SymGlobals = "wasm:globals" // globals region base
)

// HostSymbol returns the relocation symbol for a host import.
func HostSymbol(name string) string { return "helper:" + name }

// Compile translates a validated filter module to relocatable native code.
//
// Lowering model: the wasm operand stack and locals live in the native
// 512-byte stack frame. Locals occupy the top slots ([r10-8], [r10-16], …);
// the operand stack grows downward below them with r9 as the stack pointer.
// r6 caches the linear-memory base and r7 the globals base (loaded once in
// the prologue from GOT-relocated immediates). Scratch registers r2-r5 carry
// operands through each lowered instruction; host calls use the r1-r5
// argument convention shared with eBPF helpers.
func Compile(m *Module, arch native.Arch) (*native.Binary, error) {
	res, err := Validate(m)
	if err != nil {
		return nil, err
	}
	f := &m.Funcs[0]
	c := &compiler{
		m:      m,
		asm:    native.NewAssembler(arch, 0),
		locals: res.Locals,
	}
	c.prologue()
	if err := c.lower(f.Body); err != nil {
		return nil, err
	}
	bin := c.asm.Finish(m.Name, Digest(m), uint32(MaxStackSlots*8))
	return bin, nil
}

// Digest returns the module's content digest (registry cache key).
func Digest(m *Module) string {
	// Reuse the container encoding as the digest input.
	data := Encode(m)
	var h uint64 = 14695981039346656037
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return fmt.Sprintf("wasm-%016x-%d", h, len(data))
}

type cframe struct {
	op          uint8
	height      int   // operand-stack height (slots) at entry
	arity       int   // br-carried values (0 for loops)
	start       int   // native op index of loop header
	brFix       []int // native jump ops to patch to this frame's end
	elseFix     int   // if: jump over else branch (-1 when unset)
	sawElse     bool
	resultArity int // values the frame leaves on the stack at End
}

type compiler struct {
	m      *Module
	asm    *native.Assembler
	locals int
	height int // current operand-stack height in slots
	frames []cframe
}

// Register allocation (fixed roles).
const (
	rScratch0 = 2 // primary operand
	rScratch1 = 3 // secondary operand
	rScratch2 = 4
	rMemBase  = 6 // linear memory base
	rGlobBase = 7 // globals base
	rSP       = 9 // operand stack pointer (byte address)
	rFP       = 10
)

func (c *compiler) emit(i native.Inst) int { return c.asm.Emit(i) }

// localSlotOff returns the frame-pointer displacement of local l.
func (c *compiler) localSlotOff(l int) int32 { return int32(-8 * (l + 1)) }

// spInit is the operand stack's starting address displacement below r10.
func (c *compiler) spInitOff() int32 { return int32(-8 * c.locals) }

func (c *compiler) prologue() {
	// r9 = r10 - 8*locals (empty operand stack).
	c.emit(native.Inst{Op: native.OpMovRR, A: rSP, B: rFP})
	c.emit(native.Inst{Op: native.OpAluRI, A: rSP, C: native.AluAdd, Imm: c.spInitOff()})
	// Zero the locals (wasm locals default to zero).
	for l := 0; l < c.locals; l++ {
		c.emit(native.Inst{Op: native.OpStoreI, B: rFP, C: 8, Imm: c.localSlotOff(l), Ext: 0})
	}
	if c.m.MemPages > 0 {
		c.asm.EmitReloc(native.Inst{Op: native.OpMovRI, A: rMemBase}, native.RelocGlobal, SymMemory)
	}
	if len(c.m.Globals) > 0 {
		c.asm.EmitReloc(native.Inst{Op: native.OpMovRI, A: rGlobBase}, native.RelocGlobal, SymGlobals)
	}
	c.frames = []cframe{{op: 0, height: 0, arity: 1, elseFix: -1, resultArity: 1}}
}

// push emits code pushing reg onto the operand stack.
func (c *compiler) push(reg uint8) {
	c.emit(native.Inst{Op: native.OpAluRI, A: rSP, C: native.AluSub, Imm: 8})
	c.emit(native.Inst{Op: native.OpStore, A: reg, B: rSP, C: 8, Imm: 0})
	c.height++
}

// pop emits code popping the stack top into reg.
func (c *compiler) pop(reg uint8) {
	c.emit(native.Inst{Op: native.OpLoad, A: reg, B: rSP, C: 8, Imm: 0})
	c.emit(native.Inst{Op: native.OpAluRI, A: rSP, C: native.AluAdd, Imm: 8})
	c.height--
}

// setSP emits code resetting the stack pointer to height h.
func (c *compiler) setSP(h int) {
	c.emit(native.Inst{Op: native.OpMovRR, A: rSP, B: rFP})
	c.emit(native.Inst{Op: native.OpAluRI, A: rSP, C: native.AluAdd, Imm: c.spInitOff() - int32(8*h)})
}

// pushI emits code pushing a 64-bit immediate.
func (c *compiler) pushI(v uint64) {
	c.emit(native.Inst{Op: native.OpMovRI, A: rScratch0, Ext: v})
	c.push(rScratch0)
}

// boolResult lowers "push (1 if jump-taken else 0)" given an emitted
// conditional-jump factory.
func (c *compiler) boolResult(emitJump func(targetTrue int32) int) {
	j := emitJump(-1) // patched to the "true" block
	c.emit(native.Inst{Op: native.OpMovRI, A: rScratch0, Ext: 0})
	skip := c.emit(native.Inst{Op: native.OpJmp, C: native.CondAlways, Imm: -1})
	c.asm.PatchImm(j, int32(c.asm.Len()))
	c.emit(native.Inst{Op: native.OpMovRI, A: rScratch0, Ext: 1})
	c.asm.PatchImm(skip, int32(c.asm.Len()))
	c.push(rScratch0)
}

// signExtend32 sign-extends reg from 32 to 64 bits in place.
func (c *compiler) signExtend32(reg uint8) {
	c.emit(native.Inst{Op: native.OpAluRI, A: reg, C: native.AluLsh, Imm: 32})
	c.emit(native.Inst{Op: native.OpAluRI, A: reg, C: native.AluArsh, Imm: 32})
}

// zeroExtend32 truncates reg to its low 32 bits.
func (c *compiler) zeroExtend32(reg uint8) {
	c.emit(native.Inst{Op: native.OpAluRR, A: reg, B: reg, C: native.AluMov, Flags: native.Flag32})
}

func (c *compiler) lower(body []byte) error {
	d := &decoder{b: body}
	for {
		op, ok := d.op()
		if !ok {
			return fmt.Errorf("wasm: compiler fell off body")
		}
		switch op {
		case OpNop:

		case OpUnreachable:
			// Trap: jump to an invalid target; the engine reports pc
			// out of range, the deliberate RDX-Wasm trap encoding.
			c.emit(native.Inst{Op: native.OpJmp, C: native.CondAlways, Imm: -1})

		case OpBlock, OpLoop:
			bt, _ := d.u8()
			result, _ := blockResult(bt)
			arity := len(result)
			if op == OpLoop {
				arity = 0
			}
			c.frames = append(c.frames, cframe{
				op: op, height: c.height, arity: arity,
				start: c.asm.Len(), elseFix: -1, resultArity: len(result),
			})

		case OpIf:
			bt, _ := d.u8()
			result, _ := blockResult(bt)
			c.pop(rScratch0)
			c.zeroExtend32(rScratch0)
			j := c.emit(native.Inst{Op: native.OpJmpI, A: rScratch0, C: native.CondEQ, Imm: -1, Ext: 0})
			c.frames = append(c.frames, cframe{
				op: OpIf, height: c.height, arity: len(result),
				elseFix: j, resultArity: len(result),
			})

		case OpElse:
			fr := &c.frames[len(c.frames)-1]
			// Terminate the then-branch with a jump to End.
			j := c.emit(native.Inst{Op: native.OpJmp, C: native.CondAlways, Imm: -1})
			fr.brFix = append(fr.brFix, j)
			// The false path lands here.
			c.asm.PatchImm(fr.elseFix, int32(c.asm.Len()))
			fr.elseFix = -1
			fr.sawElse = true
			c.height = fr.height

		case OpEnd:
			fr := c.frames[len(c.frames)-1]
			c.frames = c.frames[:len(c.frames)-1]
			if fr.elseFix >= 0 {
				// If without else: false path lands at End.
				c.asm.PatchImm(fr.elseFix, int32(c.asm.Len()))
			}
			for _, j := range fr.brFix {
				c.asm.PatchImm(j, int32(c.asm.Len()))
			}
			if len(c.frames) == 0 {
				// Function end: result (if any) is on top of stack.
				c.pop(0)
				c.emit(native.Inst{Op: native.OpRet})
				if d.rem() != 0 {
					return fmt.Errorf("wasm: trailing bytes after end")
				}
				return nil
			}
			// Normalize the height: validation guarantees the stack
			// carries exactly resultArity values above fr.height on
			// any reachable fall-through; after an unconditional
			// transfer the compiler's height tracker may disagree, so
			// reset it to the canonical value.
			c.height = fr.height + fr.resultArity
			c.setSP(c.height)

		case OpBr, OpBrIf:
			depth, _ := d.u32()
			target := &c.frames[len(c.frames)-1-int(depth)]

			var condJump int
			if op == OpBrIf {
				c.pop(rScratch2)
				c.zeroExtend32(rScratch2)
				condJump = c.emit(native.Inst{Op: native.OpJmpI, A: rScratch2, C: native.CondEQ, Imm: -1, Ext: 0})
			}
			// Carry the label's values, unwind, re-push.
			if target.arity == 1 {
				c.pop(rScratch0)
			}
			c.setSP(target.height)
			c.height = target.height
			if target.arity == 1 {
				c.push(rScratch0)
			}
			if target.op == OpLoop {
				c.emit(native.Inst{Op: native.OpJmp, C: native.CondAlways, Imm: int32(target.start)})
			} else {
				j := c.emit(native.Inst{Op: native.OpJmp, C: native.CondAlways, Imm: -1})
				target.brFix = append(target.brFix, j)
			}
			if op == OpBrIf {
				c.asm.PatchImm(condJump, int32(c.asm.Len()))
				// Fall-through: the branch did not pop label values
				// permanently — restore the tracked height.
				c.height = target.height + target.arity
				if int(depth) == 0 {
					// Height tracking for the current frame.
				}
				// The br_if fall-through keeps the stack as before the
				// br (cond already consumed): values re-pushed above.
			}

		case OpReturn:
			c.pop(0)
			c.emit(native.Inst{Op: native.OpRet})

		case OpCall:
			fi, _ := d.u32()
			ft, err := c.m.FuncTypeAt(fi)
			if err != nil {
				return err
			}
			// Pop args into r1..rN (reverse order off the stack).
			for i := len(ft.Params) - 1; i >= 0; i-- {
				c.pop(uint8(1 + i))
			}
			c.asm.EmitReloc(native.Inst{Op: native.OpCall},
				native.RelocHelper, HostSymbol(c.m.Imports[fi].Name))
			if len(ft.Results) == 1 {
				if ft.Results[0] == I32 {
					c.zeroExtend32(0)
				}
				c.push(0)
			}

		case OpDrop:
			c.emit(native.Inst{Op: native.OpAluRI, A: rSP, C: native.AluAdd, Imm: 8})
			c.height--

		case OpSelect:
			c.pop(rScratch2) // cond
			c.pop(rScratch1) // b
			c.pop(rScratch0) // a
			c.zeroExtend32(rScratch2)
			j := c.emit(native.Inst{Op: native.OpJmpI, A: rScratch2, C: native.CondNE, Imm: -1, Ext: 0})
			c.emit(native.Inst{Op: native.OpMovRR, A: rScratch0, B: rScratch1})
			c.asm.PatchImm(j, int32(c.asm.Len()))
			c.push(rScratch0)

		case OpLocalGet:
			idx, _ := d.u32()
			c.emit(native.Inst{Op: native.OpLoad, A: rScratch0, B: rFP, C: 8, Imm: c.localSlotOff(int(idx))})
			c.push(rScratch0)
		case OpLocalSet:
			idx, _ := d.u32()
			c.pop(rScratch0)
			c.emit(native.Inst{Op: native.OpStore, A: rScratch0, B: rFP, C: 8, Imm: c.localSlotOff(int(idx))})
		case OpLocalTee:
			idx, _ := d.u32()
			c.emit(native.Inst{Op: native.OpLoad, A: rScratch0, B: rSP, C: 8, Imm: 0})
			c.emit(native.Inst{Op: native.OpStore, A: rScratch0, B: rFP, C: 8, Imm: c.localSlotOff(int(idx))})

		case OpGlobalGet:
			idx, _ := d.u32()
			c.emit(native.Inst{Op: native.OpLoad, A: rScratch0, B: rGlobBase, C: 8, Imm: int32(8 * idx)})
			if c.m.Globals[idx].Type == I32 {
				c.zeroExtend32(rScratch0)
			}
			c.push(rScratch0)
		case OpGlobalSet:
			idx, _ := d.u32()
			c.pop(rScratch0)
			c.emit(native.Inst{Op: native.OpStore, A: rScratch0, B: rGlobBase, C: 8, Imm: int32(8 * idx)})

		case OpI32Load, OpI64Load:
			off, _ := d.u32()
			c.pop(rScratch0)
			c.zeroExtend32(rScratch0)
			c.emit(native.Inst{Op: native.OpAluRR, A: rScratch0, B: rMemBase, C: native.AluAdd})
			size := uint8(4)
			if op == OpI64Load {
				size = 8
			}
			c.emit(native.Inst{Op: native.OpLoad, A: rScratch0, B: rScratch0, C: size, Imm: int32(off)})
			c.push(rScratch0)

		case OpI32Store, OpI64Store:
			off, _ := d.u32()
			c.pop(rScratch1) // value
			c.pop(rScratch0) // address
			c.zeroExtend32(rScratch0)
			c.emit(native.Inst{Op: native.OpAluRR, A: rScratch0, B: rMemBase, C: native.AluAdd})
			size := uint8(4)
			if op == OpI64Store {
				size = 8
			}
			c.emit(native.Inst{Op: native.OpStore, A: rScratch1, B: rScratch0, C: size, Imm: int32(off)})

		case OpI32Const:
			v, _ := d.u32()
			c.pushI(uint64(v))
		case OpI64Const:
			v, _ := d.u64()
			c.pushI(v)

		case OpI32WrapI64:
			c.pop(rScratch0)
			c.zeroExtend32(rScratch0)
			c.push(rScratch0)
		case OpI64ExtendI32:
			c.pop(rScratch0)
			c.zeroExtend32(rScratch0)
			c.push(rScratch0)

		default:
			if err := c.lowerALU(op); err != nil {
				return err
			}
		}
	}
}

// lowerALU lowers pure value operations.
func (c *compiler) lowerALU(op uint8) error {
	in, _, ok := aluShape(op)
	if !ok {
		return fmt.Errorf("wasm: compiler: unknown opcode %#x", op)
	}
	if in.count == 2 {
		c.pop(rScratch1)
		c.pop(rScratch0)
	} else {
		c.pop(rScratch0)
	}

	// Comparisons produce an i32 bool via conditional jump.
	if cmpCond, is64, signed, isCmp := cmpShape(op); isCmp {
		if in.count == 1 { // eqz
			c.emit(native.Inst{Op: native.OpMovRI, A: rScratch1, Ext: 0})
		}
		if !is64 {
			if signed {
				c.signExtend32(rScratch0)
				c.signExtend32(rScratch1)
			} else {
				c.zeroExtend32(rScratch0)
				c.zeroExtend32(rScratch1)
			}
		}
		c.boolResult(func(int32) int {
			return c.emit(native.Inst{Op: native.OpJmp, A: rScratch0, B: rScratch1, C: cmpCond, Imm: -1})
		})
		return nil
	}

	aluOp, is64, err := arithShape(op)
	if err != nil {
		return err
	}
	flags := uint8(0)
	if !is64 {
		flags = native.Flag32
	}
	// Signed 32-bit shifts need sign-extended operands under a 64-bit op.
	switch op {
	case OpI32ShrS:
		c.signExtend32(rScratch0)
		c.zeroExtend32(rScratch1)
		c.emit(native.Inst{Op: native.OpAluRR, A: rScratch0, B: rScratch1, C: native.AluArsh})
		c.zeroExtend32(rScratch0)
	default:
		c.emit(native.Inst{Op: native.OpAluRR, A: rScratch0, B: rScratch1, C: aluOp, Flags: flags})
	}
	c.push(rScratch0)
	return nil
}

// cmpShape classifies comparison ops → (condition, is64, signed, isCmp).
func cmpShape(op uint8) (uint8, bool, bool, bool) {
	switch op {
	case OpI32Eqz:
		return native.CondEQ, false, false, true
	case OpI64Eqz:
		return native.CondEQ, true, false, true
	case OpI32Eq:
		return native.CondEQ, false, false, true
	case OpI32Ne:
		return native.CondNE, false, false, true
	case OpI32LtS:
		return native.CondSLT, false, true, true
	case OpI32LtU:
		return native.CondLT, false, false, true
	case OpI32GtS:
		return native.CondSGT, false, true, true
	case OpI32GtU:
		return native.CondGT, false, false, true
	case OpI32LeS:
		return native.CondSLE, false, true, true
	case OpI32GeS:
		return native.CondSGE, false, true, true
	case OpI64Eq:
		return native.CondEQ, true, false, true
	case OpI64Ne:
		return native.CondNE, true, false, true
	case OpI64LtS:
		return native.CondSLT, true, true, true
	case OpI64LtU:
		return native.CondLT, true, false, true
	case OpI64GtS:
		return native.CondSGT, true, true, true
	case OpI64GtU:
		return native.CondGT, true, false, true
	case OpI64LeS:
		return native.CondSLE, true, true, true
	case OpI64GeS:
		return native.CondSGE, true, true, true
	}
	return 0, false, false, false
}

// arithShape classifies arithmetic ops → (native ALU op, is64).
func arithShape(op uint8) (uint8, bool, error) {
	switch op {
	case OpI32Add:
		return native.AluAdd, false, nil
	case OpI32Sub:
		return native.AluSub, false, nil
	case OpI32Mul:
		return native.AluMul, false, nil
	case OpI32DivS:
		return native.AluDivS, false, nil
	case OpI32ShrS:
		return native.AluArsh, false, nil // special-cased: sign-extend first
	case OpI32DivU:
		return native.AluDiv, false, nil
	case OpI32RemU:
		return native.AluMod, false, nil
	case OpI32And:
		return native.AluAnd, false, nil
	case OpI32Or:
		return native.AluOr, false, nil
	case OpI32Xor:
		return native.AluXor, false, nil
	case OpI32Shl:
		return native.AluLsh, false, nil
	case OpI32ShrU:
		return native.AluRsh, false, nil
	case OpI64Add:
		return native.AluAdd, true, nil
	case OpI64Sub:
		return native.AluSub, true, nil
	case OpI64Mul:
		return native.AluMul, true, nil
	case OpI64DivS:
		return native.AluDivS, true, nil
	case OpI64DivU:
		return native.AluDiv, true, nil
	case OpI64RemU:
		return native.AluMod, true, nil
	case OpI64And:
		return native.AluAnd, true, nil
	case OpI64Or:
		return native.AluOr, true, nil
	case OpI64Xor:
		return native.AluXor, true, nil
	case OpI64Shl:
		return native.AluLsh, true, nil
	case OpI64ShrS:
		return native.AluArsh, true, nil
	case OpI64ShrU:
		return native.AluRsh, true, nil
	}
	return 0, false, fmt.Errorf("wasm: no arith lowering for %#x", op)
}
