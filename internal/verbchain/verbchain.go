// Package verbchain implements NIC-resident control programs: bounded
// chains of RDMA verbs (WRITE / CAS / FETCH_ADD / WAIT, plus counted
// backward loops) that are compiled and validated on the initiator,
// pre-posted into a chain region of the target's arena, and executed by
// the target's RNIC when a trigger doorbell fires — zero initiator round
// trips between trigger and effect, zero target-CPU involvement.
//
// The model follows RedN ("RDMA is Turing complete"): conditional edges
// are encoded as per-op enables (an op fires only when a register or the
// trigger count matches a value — the CAS-enable idiom), and iteration is
// restricted to counted backward loops, so every program's worst-case
// step count is computable at compile time. Validation rejects anything
// else: unbounded cycles, out-of-range registers, targets outside the
// registered regions the compiler was given, unaligned qwords.
//
// The package is deliberately pure — no dependency on the rdma transport.
// The rdma endpoint is the one caller of the interpreter (Execute), which
// reaches memory through the Env interface; the deterministic simulator
// fires chains through that same endpoint code (rdma.Endpoint.Local).
package verbchain

import (
	"errors"
	"fmt"
)

// Core limits. Programs are meant to be a handful of ops; the caps keep
// worst-case NIC occupancy per trigger bounded and statically checkable.
const (
	// NRegs is the register-file size. Registers live in the chain region
	// (persistent across triggers, remotely initializable). Register
	// NRegs-1 (R7) is the trigger-argument register: every trigger stores
	// its 8-byte argument there before the program runs.
	NRegs = 8
	// ArgReg is the register that receives the trigger argument.
	ArgReg = NRegs - 1
	// MaxOps bounds program length.
	MaxOps = 64
	// MaxLoopIters bounds one LOOP op's iteration count.
	MaxLoopIters = 1024
	// MaxTotalSteps bounds the statically-computed worst-case executed
	// steps of a program (loops expanded).
	MaxTotalSteps = 4096
	// MaxWaitSpins bounds one WAIT op's spin budget.
	MaxWaitSpins = 1 << 16
)

// NoReg as an Op.Dst discards the op's result.
const NoReg = 0xFF

// OpKind selects a chain op.
type OpKind uint8

const (
	// KindWrite stores Src as a qword at the target.
	KindWrite OpKind = 1
	// KindCAS compares the target qword with Cmp and stores Src if equal;
	// the previous value lands in Dst. With AbortIfLost set, a lost CAS
	// faults the chain (abort-on-conflict, the RedN conditional-halt).
	KindCAS OpKind = 2
	// KindFetchAdd atomically adds Src to the target qword; the previous
	// value lands in Dst.
	KindFetchAdd OpKind = 3
	// KindWait re-reads the target qword until it equals Src, up to Spins
	// attempts; exhaustion faults the chain. The last read lands in Dst.
	KindWait OpKind = 4
	// KindLoop jumps back to pc To until the op has executed Count times
	// (counted backward loop — the only legal cycle).
	KindLoop OpKind = 5
)

// OperandKind selects where an operand's value comes from.
type OperandKind uint8

const (
	// OperandImm is an immediate value.
	OperandImm OperandKind = 0
	// OperandReg reads a register.
	OperandReg OperandKind = 1
	// OperandTrigger reads the current trigger count (the value after
	// this trigger's increment) — the barrier fan-in source.
	OperandTrigger OperandKind = 2
)

// Operand is one value source.
type Operand struct {
	Kind OperandKind
	Imm  uint64
	Reg  uint8
}

// Imm returns an immediate operand.
func Imm(v uint64) Operand { return Operand{Kind: OperandImm, Imm: v} }

// Reg returns a register operand.
func Reg(i uint8) Operand { return Operand{Kind: OperandReg, Reg: i} }

// Trigger returns the trigger-count operand.
func Trigger() Operand { return Operand{Kind: OperandTrigger} }

// CondKind selects an op's enable predicate.
type CondKind uint8

const (
	// CondAlways enables the op unconditionally.
	CondAlways CondKind = 0
	// CondRegEq enables the op when register Reg equals Val.
	CondRegEq CondKind = 1
	// CondTrigEq enables the op when the trigger count equals Val — the
	// CAS-enable edge used for barrier fan-in: N-1 triggers skip the
	// commit op, the Nth fires it.
	CondTrigEq CondKind = 2
)

// Cond is a per-op conditional enable. A false condition skips the op;
// it is not a fault.
type Cond struct {
	Kind CondKind
	Reg  uint8
	Val  uint64
}

// WhenTrigger enables an op only on the n-th trigger.
func WhenTrigger(n uint64) Cond { return Cond{Kind: CondTrigEq, Val: n} }

// WhenReg enables an op only while register r equals v.
func WhenReg(r uint8, v uint64) Cond { return Cond{Kind: CondRegEq, Reg: r, Val: v} }

// Op is one chain operation.
type Op struct {
	Kind OpKind
	When Cond

	// RKey/Addr name the target qword (Write/CAS/FetchAdd/Wait). The rkey
	// is re-resolved by the executor at every step, so a rotation revokes
	// an in-flight chain exactly as it revokes single verbs.
	RKey uint32
	Addr uint64

	Src Operand // Write: value; CAS: new; FetchAdd: delta; Wait: expected
	Cmp Operand // CAS: expected old
	Dst uint8   // result register, or NoReg

	Spins uint32 // Wait: spin budget; Loop: iteration count
	To    uint8  // Loop: backward jump target pc

	// AbortIfLost faults the chain when a CAS does not swap.
	AbortIfLost bool
}

// Guard is an optional fencing predicate evaluated before every step: the
// qword at (RKey, Addr) must equal Want or the chain is revoked. Pointing
// it at a fencing-epoch word makes an epoch bump revoke resident chains
// without touching them.
type Guard struct {
	Enabled bool
	RKey    uint32
	Addr    uint64
	Want    uint64
}

// Doorbell optionally rings the endpoint's doorbell machinery at
// (RKey, Addr) with Imm after the chain completes successfully — the
// chain-side equivalent of WRITE_WITH_IMM's cc_event.
type Doorbell struct {
	RKey uint32
	Addr uint64
	Imm  uint32
}

// Program is a compiled chain.
type Program struct {
	Ops      []Op
	Guard    Guard
	Doorbell *Doorbell
}

// Region describes one remotely-accessible memory window for compile-time
// target checks (a transport-free mirror of an rdma.MR).
type Region struct {
	RKey   uint32
	Addr   uint64
	Len    uint64
	Read   bool
	Write  bool
	Atomic bool
}

func (r *Region) holdsQword(addr uint64) bool {
	return addr%8 == 0 && addr >= r.Addr && r.Len >= 8 && addr-r.Addr <= r.Len-8
}

func findRegion(regions []Region, rkey uint32) *Region {
	for i := range regions {
		if regions[i].RKey == rkey {
			return &regions[i]
		}
	}
	return nil
}

// ErrInvalid marks a program rejected at compile time.
var ErrInvalid = errors.New("verbchain: invalid program")

func invalidf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// Validate checks a program against the compile-time rules: bounded
// length, registers in range, backward-only counted loops whose expansion
// stays under MaxTotalSteps, and — when regions is non-nil — every target
// resolvable to a registered region with the right permission, 8-aligned
// and in bounds. Chains that reach execution have always passed this.
func (p *Program) Validate(regions []Region) error {
	if len(p.Ops) == 0 {
		return invalidf("empty program")
	}
	if len(p.Ops) > MaxOps {
		return invalidf("%d ops exceeds max %d", len(p.Ops), MaxOps)
	}
	for pc := range p.Ops {
		op := &p.Ops[pc]
		if err := op.validate(pc, regions); err != nil {
			return err
		}
	}
	if p.Guard.Enabled && regions != nil {
		r := findRegion(regions, p.Guard.RKey)
		if r == nil || !r.Read || !r.holdsQword(p.Guard.Addr) {
			return invalidf("guard target %#x/%#x unreadable", p.Guard.RKey, p.Guard.Addr)
		}
	}
	if d := p.Doorbell; d != nil && regions != nil {
		r := findRegion(regions, d.RKey)
		if r == nil || !r.Write || d.Addr < r.Addr || d.Addr-r.Addr >= r.Len {
			return invalidf("doorbell target %#x/%#x unwritable", d.RKey, d.Addr)
		}
	}
	if steps, ok := p.boundSteps(); !ok {
		return invalidf("worst-case steps exceed %d", MaxTotalSteps)
	} else if steps > MaxTotalSteps {
		return invalidf("worst-case %d steps exceed %d", steps, MaxTotalSteps)
	}
	return nil
}

func (op *Op) validate(pc int, regions []Region) error {
	badReg := func(r uint8) bool { return r >= NRegs }
	if op.When.Kind > CondTrigEq || (op.When.Kind == CondRegEq && badReg(op.When.Reg)) {
		return invalidf("op %d: bad condition", pc)
	}
	checkOperand := func(o Operand, what string) error {
		if o.Kind > OperandTrigger || (o.Kind == OperandReg && badReg(o.Reg)) {
			return invalidf("op %d: bad %s operand", pc, what)
		}
		return nil
	}
	checkTarget := func(needWrite, needAtomic, needRead bool) error {
		if regions == nil {
			return nil
		}
		r := findRegion(regions, op.RKey)
		if r == nil {
			return invalidf("op %d: unknown rkey %#x", pc, op.RKey)
		}
		if (needWrite && !r.Write) || (needAtomic && !r.Atomic) || (needRead && !r.Read) {
			return invalidf("op %d: permission denied on rkey %#x", pc, op.RKey)
		}
		if !r.holdsQword(op.Addr) {
			return invalidf("op %d: target %#x out of bounds or unaligned", pc, op.Addr)
		}
		return nil
	}
	if op.Dst != NoReg && badReg(op.Dst) {
		return invalidf("op %d: bad dst register %d", pc, op.Dst)
	}
	switch op.Kind {
	case KindWrite:
		if err := checkOperand(op.Src, "src"); err != nil {
			return err
		}
		return checkTarget(true, false, false)
	case KindCAS:
		if err := checkOperand(op.Src, "src"); err != nil {
			return err
		}
		if err := checkOperand(op.Cmp, "cmp"); err != nil {
			return err
		}
		return checkTarget(false, true, false)
	case KindFetchAdd:
		if err := checkOperand(op.Src, "src"); err != nil {
			return err
		}
		return checkTarget(false, true, false)
	case KindWait:
		if err := checkOperand(op.Src, "src"); err != nil {
			return err
		}
		if op.Spins == 0 || op.Spins > MaxWaitSpins {
			return invalidf("op %d: wait spins %d outside [1,%d]", pc, op.Spins, MaxWaitSpins)
		}
		return checkTarget(false, false, true)
	case KindLoop:
		if int(op.To) >= pc {
			return invalidf("op %d: loop target %d is not strictly backward", pc, op.To)
		}
		if op.Spins == 0 || op.Spins > MaxLoopIters {
			return invalidf("op %d: loop count %d outside [1,%d]", pc, op.Spins, MaxLoopIters)
		}
		return nil
	default:
		return invalidf("op %d: unknown kind %d", pc, op.Kind)
	}
}

// boundSteps statically walks the program with loop counters, returning
// the worst-case executed step count (conditions assumed true, WAITs
// counted once — their spin budget bounds occupancy separately). Because
// jumps are backward and counted, the walk terminates; ok is false if it
// exceeds MaxTotalSteps first.
func (p *Program) boundSteps() (int, bool) {
	var rem [MaxOps]uint32
	var armed [MaxOps]bool
	steps := 0
	for pc := 0; pc < len(p.Ops); {
		steps++
		if steps > MaxTotalSteps {
			return steps, false
		}
		op := &p.Ops[pc]
		if op.Kind == KindLoop {
			if !armed[pc] {
				rem[pc] = op.Spins
				armed[pc] = true
			}
			rem[pc]--
			if rem[pc] > 0 {
				pc = int(op.To)
				continue
			}
			armed[pc] = false
		}
		pc++
	}
	return steps, true
}
