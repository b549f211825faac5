// Package verifier statically validates eBPF programs before they may be
// compiled or deployed, mirroring the safety obligations of the kernel
// verifier:
//
//   - structural validity: known opcodes, register bounds, LDDW pairing,
//     in-range jump targets that never land inside an LDDW pair;
//   - termination: the control-flow graph must be acyclic (no back edges);
//   - full reachability: dead code is rejected;
//   - memory safety: register-type dataflow proves every load/store hits the
//     context, the stack, or a null-checked map value, within bounds;
//   - helper discipline: arguments match helper signatures, caller-saved
//     registers are clobbered, R0 is defined before exit.
//
// The analysis is one dataflow pass over the acyclic CFG in topological
// order: each instruction is stepped once, on the join of its predecessors'
// abstract states, with branch-sensitive null-pointer refinement. Cost is
// deliberately real (though pooled memory keeps it analysis, not allocation):
// linear in instruction count, exactly the CPU tax the paper's agent baseline
// pays on every node (Fig 2a / Fig 4b).
package verifier

import (
	"fmt"
	"sync"
	"time"

	"rdx/internal/ebpf"
	"rdx/internal/xabi"
)

// Config bounds the verifier's work.
type Config struct {
	// MaxInsns rejects programs longer than this many slots (default 1M,
	// like modern kernels); the analysis visits each slot once.
	MaxInsns int
}

func (c Config) withDefaults() Config {
	if c.MaxInsns == 0 {
		c.MaxInsns = 1 << 20
	}
	return c
}

// Result carries facts the verifier proved, consumed by the JIT, the
// loader, and Program metadata.
type Result struct {
	StackDepth    int // bytes of stack actually used
	MaxCtxOffset  int
	Insns         int
	Branches      int
	UsesMapLookup bool
	UsesMapUpdate bool
	WritesCtx     bool
	Elapsed       time.Duration
}

// Error is a verification failure annotated with the offending instruction.
type Error struct {
	InsnIdx int
	Insn    ebpf.Instruction
	Reason  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("verifier: insn %d (%s): %s", e.InsnIdx, e.Insn, e.Reason)
}

func errAt(idx int, ins ebpf.Instruction, format string, args ...interface{}) error {
	return &Error{InsnIdx: idx, Insn: ins, Reason: fmt.Sprintf(format, args...)}
}

// Register abstract types.
type regType uint8

const (
	tUninit regType = iota
	tScalar
	tCtxPtr
	tStackPtr
	tMapHandle
	tMapValueOrNull
	tMapValue
)

func (t regType) String() string {
	switch t {
	case tUninit:
		return "uninit"
	case tScalar:
		return "scalar"
	case tCtxPtr:
		return "ctx_ptr"
	case tStackPtr:
		return "stack_ptr"
	case tMapHandle:
		return "map_handle"
	case tMapValueOrNull:
		return "map_value_or_null"
	case tMapValue:
		return "map_value"
	default:
		return "?"
	}
}

// regState is the abstract value of one register.
type regState struct {
	typ    regType
	off    int64 // pointer offset from region base (ctx/map value) or from R10 (stack)
	mapIdx int32 // for map handle / value types
	// Constant tracking for scalars, used for pointer arithmetic with
	// register operands and div-by-zero reasoning.
	constKnown bool
	constVal   int64
}

func scalar() regState             { return regState{typ: tScalar} }
func constScalar(v int64) regState { return regState{typ: tScalar, constKnown: true, constVal: v} }

// absState is the abstract machine state at one program point.
type absState struct {
	regs  [ebpf.NumRegs]regState
	stack [xabi.StackSize / 8]uint8 // per-byte init bitmap, 64 words of 8 flags
}

// stackMask is the flags of the n bytes of [off, off+size) that fall in off's
// bitmap word. Loads and stores are aligned and at most a word wide, so one
// mask covers them; only helper key/value buffers span words.
func stackMask(off, size int) (mask uint8, n int) {
	n = min(size, 8-off%8)
	return uint8(1<<n-1) << (off % 8), n
}

func (s *absState) stackInit(off int, size int) {
	for size > 0 {
		mask, n := stackMask(off, size)
		s.stack[off/8] |= mask
		off, size = off+n, size-n
	}
}

func (s *absState) stackAllInit(off int, size int) bool {
	for size > 0 {
		mask, n := stackMask(off, size)
		if s.stack[off/8]&mask != mask {
			return false
		}
		off, size = off+n, size-n
	}
	return true
}

// join merges b into a, reporting whether a changed. Registers whose types
// disagree across paths degrade to uninit (conservative: any later use
// errors); constants degrade to unknown scalars; stack init bits intersect.
func join(a, b *absState) bool {
	changed := false
	for r := range a.regs {
		ar, br := &a.regs[r], b.regs[r]
		if ar.typ != br.typ || (ar.typ != tScalar && (ar.off != br.off || ar.mapIdx != br.mapIdx)) {
			if ar.typ != tUninit {
				// Types or pointer shapes disagree: degrade.
				if !(ar.typ == br.typ && ar.typ == tScalar) {
					*ar = regState{typ: tUninit}
					changed = true
					continue
				}
			} else {
				continue
			}
		}
		if ar.typ == tScalar && ar.constKnown && (!br.constKnown || br.constVal != ar.constVal) {
			ar.constKnown = false
			changed = true
		}
	}
	for w := range a.stack {
		merged := a.stack[w] & b.stack[w]
		if merged != a.stack[w] {
			a.stack[w] = merged
			changed = true
		}
	}
	return changed
}

// Verify checks p and returns proved facts, or the first error found.
func Verify(p *ebpf.Program, cfg Config) (*Result, error) {
	start := time.Now()
	cfg = cfg.withDefaults()
	res := &Result{Insns: len(p.Insns)}

	if len(p.Insns) == 0 {
		return nil, fmt.Errorf("verifier: empty program")
	}
	if len(p.Insns) > cfg.MaxInsns {
		return nil, fmt.Errorf("verifier: %d instructions exceed limit %d", len(p.Insns), cfg.MaxInsns)
	}
	for i, m := range p.Maps {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("verifier: map %d: %w", i, err)
		}
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	v := &vstate{prog: p, res: res, scratch: sc}
	if err := v.structural(); err != nil {
		return nil, err
	}
	if err := v.buildCFG(); err != nil {
		return nil, err
	}
	if err := v.dataflow(); err != nil {
		return nil, err
	}

	res.Elapsed = time.Since(start)
	return res, nil
}

type vstate struct {
	prog *ebpf.Program
	res  *Result
	*scratch
}

// scratch is Verify's working memory, carried between calls by scratchPool
// and grown to the largest program seen.
type scratch struct {
	isCont []bool      // slot is the second half of an LDDW
	succs  [][2]int32  // up to two successors per insn; -1 = none
	color  []uint8     // buildCFG's DFS colours
	frames []dfsFrame  // buildCFG's DFS stack
	order  []int32     // insns in DFS postorder: reversed, a topological order
	states []*absState // an insn's joined input, from its first incoming edge to its own visit
	free   []*absState // states whose insn has been stepped, for reuse
}

type dfsFrame struct{ node, edge int32 }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// sized returns s zeroed at length n, reallocating only when n outgrows it.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// newState returns a state holding stale contents, for the caller to overwrite.
func (sc *scratch) newState() *absState {
	if n := len(sc.free); n > 0 {
		st := sc.free[n-1]
		sc.free = sc.free[:n-1]
		return st
	}
	return new(absState)
}

// structural validates opcodes, registers, LDDW pairing, and immediate
// constraints that need no dataflow.
func (v *vstate) structural() error {
	insns := v.prog.Insns
	v.isCont = sized(v.isCont, len(insns))
	for i := 0; i < len(insns); i++ {
		ins := insns[i]
		if ins.Dst >= ebpf.NumRegs || ins.Src >= ebpf.NumRegs {
			return errAt(i, ins, "register out of range")
		}
		switch ins.Class() {
		case ebpf.ClassALU, ebpf.ClassALU64:
			switch ins.AluOp() {
			case ebpf.AluAdd, ebpf.AluSub, ebpf.AluMul, ebpf.AluOr, ebpf.AluAnd,
				ebpf.AluXor, ebpf.AluMov:
			case ebpf.AluDiv, ebpf.AluMod:
				if !ins.UsesX() && ins.Imm == 0 {
					return errAt(i, ins, "division by zero immediate")
				}
			case ebpf.AluLsh, ebpf.AluRsh, ebpf.AluArsh:
				width := int32(64)
				if ins.Class() == ebpf.ClassALU {
					width = 32
				}
				if !ins.UsesX() && (ins.Imm < 0 || ins.Imm >= width) {
					return errAt(i, ins, "shift amount %d out of range", ins.Imm)
				}
			case ebpf.AluNeg:
				if ins.UsesX() {
					return errAt(i, ins, "NEG takes no source register")
				}
			default:
				return errAt(i, ins, "unknown ALU op %#x", ins.AluOp())
			}
		case ebpf.ClassJMP:
			switch ins.JmpOp() {
			case ebpf.JmpJA, ebpf.JmpJEQ, ebpf.JmpJGT, ebpf.JmpJGE, ebpf.JmpJSET,
				ebpf.JmpJNE, ebpf.JmpJSGT, ebpf.JmpJSGE, ebpf.JmpJLT, ebpf.JmpJLE,
				ebpf.JmpJSLT, ebpf.JmpJSLE, ebpf.JmpExit, ebpf.JmpCall:
			default:
				return errAt(i, ins, "unknown JMP op %#x", ins.JmpOp())
			}
		case ebpf.ClassLDX, ebpf.ClassSTX, ebpf.ClassST:
			if ins.Op&0xE0 != ebpf.ModeMEM {
				return errAt(i, ins, "only MEM mode loads/stores supported")
			}
		case ebpf.ClassLD:
			if !ins.IsLDDW() {
				return errAt(i, ins, "only LDDW supported in class LD")
			}
			if i+1 >= len(insns) {
				return errAt(i, ins, "LDDW missing second slot")
			}
			next := insns[i+1]
			if next.Op != 0 || next.Dst != 0 || next.Src != 0 || next.Off != 0 {
				return errAt(i+1, next, "malformed LDDW second slot")
			}
			if ins.Src == ebpf.PseudoMapFD {
				if int(ins.Imm) < 0 || int(ins.Imm) >= len(v.prog.Maps) {
					return errAt(i, ins, "map index %d out of range (%d maps)", ins.Imm, len(v.prog.Maps))
				}
			} else if ins.Src != 0 {
				return errAt(i, ins, "unknown LDDW pseudo source %d", ins.Src)
			}
			v.isCont[i+1] = true
			i++
		default:
			return errAt(i, ins, "unknown class %#x", ins.Class())
		}
	}
	return nil
}

// cfg builds successors, checks jump targets, rejects back edges
// (termination) and unreachable code.
func (v *vstate) buildCFG() error {
	insns := v.prog.Insns
	n := len(insns)
	v.succs = sized(v.succs, n)
	for i := 0; i < n; i++ {
		v.succs[i] = [2]int32{-1, -1}
		if v.isCont[i] {
			// Control flows through the pair; treat the continuation
			// slot as falling through.
			if i+1 >= n {
				return errAt(i, insns[i], "control falls off program end after LDDW")
			}
			v.succs[i][0] = int32(i + 1)
			continue
		}
		ins := insns[i]
		fall := i + 1
		if ins.IsLDDW() {
			v.succs[i][0] = int32(fall) // into the continuation slot
			continue
		}
		isJmp := ins.Class() == ebpf.ClassJMP
		if isJmp && ins.JmpOp() == ebpf.JmpExit {
			continue // no successors
		}
		if isJmp && ins.JmpOp() == ebpf.JmpJA {
			t := i + 1 + int(ins.Off)
			if t < 0 || t >= n || v.isCont[t] {
				return errAt(i, ins, "jump target %d invalid", t)
			}
			v.succs[i][0] = int32(t)
			continue
		}
		if isJmp && ins.JmpOp() != ebpf.JmpCall {
			t := i + 1 + int(ins.Off)
			if t < 0 || t >= n || v.isCont[t] {
				return errAt(i, ins, "branch target %d invalid", t)
			}
			if fall >= n {
				return errAt(i, ins, "branch falls off program end")
			}
			v.succs[i] = [2]int32{int32(fall), int32(t)}
			v.res.Branches++
			continue
		}
		// Straight-line (ALU, LD/ST, CALL).
		if fall >= n {
			return errAt(i, ins, "control falls off program end")
		}
		v.succs[i][0] = int32(fall)
	}

	// Iterative DFS: back-edge (cycle) detection + reachability.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	v.color, v.order = sized(v.color, n), v.order[:0]
	color := v.color
	stack := append(v.frames[:0], dfsFrame{})
	color[0] = gray
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		advanced := false
		for ; f.edge < 2; f.edge++ {
			s := v.succs[f.node][f.edge]
			if s < 0 {
				continue
			}
			switch color[s] {
			case gray:
				return errAt(int(f.node), insns[f.node], "back edge to insn %d: loops are forbidden", s)
			case white:
				color[s] = gray
				f.edge++
				stack = append(stack, dfsFrame{node: s})
				advanced = true
			}
			if advanced {
				break
			}
		}
		if !advanced {
			color[f.node] = black
			v.order = append(v.order, f.node)
			stack = stack[:len(stack)-1]
		}
	}
	v.frames = stack
	for i := 0; i < n; i++ {
		if color[i] == white && !v.isCont[i] {
			return errAt(i, insns[i], "unreachable instruction")
		}
	}
	return nil
}
