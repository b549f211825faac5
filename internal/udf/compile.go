package udf

import (
	"fmt"

	"rdx/internal/native"
	"rdx/internal/xabi"
)

// Program is a parsed and compiled-ready UDF.
type Program struct {
	Name   string
	Source string
	Expr   *Expr
}

// New parses src into a deployable UDF program.
func New(name, src string) (*Program, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return &Program{Name: name, Source: src, Expr: e}, nil
}

// Digest is the registry cache key for the UDF.
func (p *Program) Digest() string {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(p.Source); i++ {
		h ^= uint64(p.Source[i])
		h *= 1099511628211
	}
	return fmt.Sprintf("udf-%016x-%d", h, len(p.Source))
}

// Compile lowers the UDF to relocatable native code. The result register
// convention matches the other frontends: the expression value is returned
// in r0 (nonzero conventionally means "pass").
//
// Codegen model: r6 holds the context pointer (saved from r1 before any
// helper call can clobber it), r9 is an operand-stack pointer into the
// native 512-byte frame, r2-r4 are scratch.
func (p *Program) Compile(arch native.Arch) (*native.Binary, error) {
	c := &compiler{asm: native.NewAssembler(arch, 0)}
	// Prologue.
	c.emit(native.Inst{Op: native.OpMovRR, A: 6, B: 1})  // r6 = ctx
	c.emit(native.Inst{Op: native.OpMovRR, A: 9, B: 10}) // r9 = frame top
	if err := c.gen(p.Expr); err != nil {
		return nil, err
	}
	c.pop(0)
	c.emit(native.Inst{Op: native.OpRet})
	if c.maxDepth > 48 {
		return nil, fmt.Errorf("udf: expression too deep (%d stack slots)", c.maxDepth)
	}
	return c.asm.Finish(p.Name, p.Digest(), uint32(xabi.StackSize)), nil
}

type compiler struct {
	asm      *native.Assembler
	depth    int
	maxDepth int
}

func (c *compiler) emit(i native.Inst) int { return c.asm.Emit(i) }

func (c *compiler) push(reg uint8) {
	c.emit(native.Inst{Op: native.OpAluRI, A: 9, C: native.AluSub, Imm: 8})
	c.emit(native.Inst{Op: native.OpStore, A: reg, B: 9, C: 8, Imm: 0})
	c.depth++
	if c.depth > c.maxDepth {
		c.maxDepth = c.depth
	}
}

func (c *compiler) pop(reg uint8) {
	c.emit(native.Inst{Op: native.OpLoad, A: reg, B: 9, C: 8, Imm: 0})
	c.emit(native.Inst{Op: native.OpAluRI, A: 9, C: native.AluAdd, Imm: 8})
	c.depth--
}

// normBool converts reg to 0/1 (reg != 0).
func (c *compiler) normBool(reg uint8) {
	j := c.emit(native.Inst{Op: native.OpJmpI, A: reg, C: native.CondEQ, Imm: -1, Ext: 0})
	c.emit(native.Inst{Op: native.OpMovRI, A: reg, Ext: 1})
	c.asm.PatchImm(j, int32(c.asm.Len()))
}

func (c *compiler) boolFrom(cond uint8, a, b uint8) {
	j := c.emit(native.Inst{Op: native.OpJmp, A: a, B: b, C: cond, Imm: -1})
	c.emit(native.Inst{Op: native.OpMovRI, A: a, Ext: 0})
	skip := c.emit(native.Inst{Op: native.OpJmp, C: native.CondAlways, Imm: -1})
	c.asm.PatchImm(j, int32(c.asm.Len()))
	c.emit(native.Inst{Op: native.OpMovRI, A: a, Ext: 1})
	c.asm.PatchImm(skip, int32(c.asm.Len()))
}

func (c *compiler) gen(e *Expr) error {
	switch e.Kind {
	case kInt:
		c.emit(native.Inst{Op: native.OpMovRI, A: 2, Ext: uint64(e.Val)})
		c.push(2)
		return nil

	case kField:
		f := ctxFields[e.Name]
		c.emit(native.Inst{Op: native.OpLoad, A: 2, B: 6, C: f.size, Imm: f.off})
		c.push(2)
		return nil

	case kUnary:
		if err := c.gen(e.Args[0]); err != nil {
			return err
		}
		c.pop(2)
		if e.Op == "-" {
			c.emit(native.Inst{Op: native.OpAluRI, A: 2, C: native.AluNeg})
		} else { // !
			c.normBool(2)
			c.emit(native.Inst{Op: native.OpAluRI, A: 2, C: native.AluXor, Imm: 1})
		}
		c.push(2)
		return nil

	case kBinary:
		if err := c.gen(e.Args[0]); err != nil {
			return err
		}
		if err := c.gen(e.Args[1]); err != nil {
			return err
		}
		c.pop(3) // b
		c.pop(2) // a
		switch e.Op {
		case "+":
			c.emit(native.Inst{Op: native.OpAluRR, A: 2, B: 3, C: native.AluAdd})
		case "-":
			c.emit(native.Inst{Op: native.OpAluRR, A: 2, B: 3, C: native.AluSub})
		case "*":
			c.emit(native.Inst{Op: native.OpAluRR, A: 2, B: 3, C: native.AluMul})
		case "/":
			c.emit(native.Inst{Op: native.OpAluRR, A: 2, B: 3, C: native.AluDivS})
		case "%":
			// a % b (signed, total): a - (a divS b) * b.
			c.emit(native.Inst{Op: native.OpMovRR, A: 4, B: 2})
			c.emit(native.Inst{Op: native.OpAluRR, A: 4, B: 3, C: native.AluDivS})
			c.emit(native.Inst{Op: native.OpAluRR, A: 4, B: 3, C: native.AluMul})
			c.emit(native.Inst{Op: native.OpAluRR, A: 2, B: 4, C: native.AluSub})
		case "&":
			c.emit(native.Inst{Op: native.OpAluRR, A: 2, B: 3, C: native.AluAnd})
		case "|":
			c.emit(native.Inst{Op: native.OpAluRR, A: 2, B: 3, C: native.AluOr})
		case "^":
			c.emit(native.Inst{Op: native.OpAluRR, A: 2, B: 3, C: native.AluXor})
		case "==":
			c.boolFrom(native.CondEQ, 2, 3)
		case "!=":
			c.boolFrom(native.CondNE, 2, 3)
		case "<":
			c.boolFrom(native.CondSLT, 2, 3)
		case "<=":
			c.boolFrom(native.CondSLE, 2, 3)
		case ">":
			c.boolFrom(native.CondSGT, 2, 3)
		case ">=":
			c.boolFrom(native.CondSGE, 2, 3)
		case "&&":
			c.normBool(2)
			c.normBool(3)
			c.emit(native.Inst{Op: native.OpAluRR, A: 2, B: 3, C: native.AluAnd})
		case "||":
			c.normBool(2)
			c.normBool(3)
			c.emit(native.Inst{Op: native.OpAluRR, A: 2, B: 3, C: native.AluOr})
		default:
			return fmt.Errorf("udf: no codegen for %q", e.Op)
		}
		c.push(2)
		return nil

	case kCall:
		for _, a := range e.Args {
			if err := c.gen(a); err != nil {
				return err
			}
		}
		switch e.Name {
		case "min", "max":
			c.pop(3)
			c.pop(2)
			cond := native.CondSLE
			if e.Name == "max" {
				cond = native.CondSGE
			}
			j := c.emit(native.Inst{Op: native.OpJmp, A: 2, B: 3, C: cond, Imm: -1})
			c.emit(native.Inst{Op: native.OpMovRR, A: 2, B: 3})
			c.asm.PatchImm(j, int32(c.asm.Len()))
			c.push(2)
		case "abs":
			c.pop(2)
			c.emit(native.Inst{Op: native.OpMovRR, A: 3, B: 2})
			c.emit(native.Inst{Op: native.OpAluRI, A: 3, C: native.AluArsh, Imm: 63})
			c.emit(native.Inst{Op: native.OpAluRR, A: 2, B: 3, C: native.AluXor})
			c.emit(native.Inst{Op: native.OpAluRR, A: 2, B: 3, C: native.AluSub})
			c.push(2)
		case "hash":
			c.pop(2)
			c.splitmix(2, 3)
			c.push(2)
		case "now", "rand":
			helper := xabi.HelperKtimeGetNS
			if e.Name == "rand" {
				helper = xabi.HelperGetPrandomU32
			}
			c.asm.EmitReloc(native.Inst{Op: native.OpCall},
				native.RelocHelper, "helper:"+xabi.HelperName(helper))
			c.push(0)
		default:
			return fmt.Errorf("udf: no codegen for call %q", e.Name)
		}
		return nil
	}
	return fmt.Errorf("udf: bad node kind %d", e.Kind)
}

// splitmix emits the splitmix64 finalizer on reg, using tmp as scratch.
func (c *compiler) splitmix(reg, tmp uint8) {
	mix := func(shift int32, mul uint64) {
		c.emit(native.Inst{Op: native.OpMovRR, A: tmp, B: reg})
		c.emit(native.Inst{Op: native.OpAluRI, A: tmp, C: native.AluRsh, Imm: shift})
		c.emit(native.Inst{Op: native.OpAluRR, A: reg, B: tmp, C: native.AluXor})
		if mul != 0 {
			c.emit(native.Inst{Op: native.OpMovRI, A: tmp, Ext: mul})
			c.emit(native.Inst{Op: native.OpAluRR, A: reg, B: tmp, C: native.AluMul})
		}
	}
	mix(30, 0xbf58476d1ce4e5b9)
	mix(27, 0x94d049bb133111eb)
	mix(31, 0)
}
