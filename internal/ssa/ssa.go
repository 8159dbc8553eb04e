// Package ssa lowers the register IR (internal/ir) into static single
// assignment form and back out again. It is the middle end of the compiled
// execution backend (internal/vm): construction computes dominators and
// rewrites every register into versioned values joined by phi nodes
// (mem2reg), a small pass pipeline cleans the result (copy propagation,
// constant folding, dead-code elimination), and destruction splits critical
// edges and lowers phis to parallel copies so the bytecode emitter can
// allocate flat register slots.
//
// The passes are deliberately conservative about observable behaviour: a
// conditional branch is never folded or removed (its site identity feeds the
// trace plane), instructions that can trap (integer division, float-to-int
// conversion, array indexing) are never deleted or reordered past each other,
// and every block keeps a pointer to the ir.Block it descends from so the
// backend can account execution steps and block counts exactly like the
// interpreter.
package ssa

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// Op is an SSA operation. Values below pseudoBase are lifted ir.Op codes;
// the pseudo-operations above it exist only inside this package's pipeline.
type Op uint16

// pseudoBase is above every ir.Op (ir opcodes are a small dense enum).
const pseudoBase Op = 0x100

const (
	// OpPhi selects one argument per predecessor edge of its block. After
	// Destruct no phis remain in blocks; surviving phi values live on in
	// Func.PhiVars as multi-assignment variables written by copies.
	OpPhi Op = pseudoBase + iota
	// OpCopy is a register-to-register move introduced by the pipeline
	// (trivial-phi collapse, phi destruction). A copy whose Phi field is set
	// writes that phi variable's storage instead of defining a new value.
	OpCopy
	// OpParam is the incoming value of parameter Imm; the backend pins it to
	// frame slot Imm.
	OpParam
)

// FromIR lifts an ir opcode into the SSA op space.
func FromIR(op ir.Op) Op { return Op(op) }

// IsPseudo reports whether the op is one of the SSA-only pseudo-operations.
func (op Op) IsPseudo() bool { return op >= pseudoBase }

// IR returns the underlying ir opcode; only meaningful when !IsPseudo.
func (op Op) IR() ir.Op { return ir.Op(op) }

func (op Op) String() string {
	switch op {
	case OpPhi:
		return "phi"
	case OpCopy:
		return "copy"
	case OpParam:
		return "param"
	}
	return op.IR().String()
}

// Value is one SSA value: an operation, its value arguments, and an optional
// immediate. Every value is identified by a dense per-function ID.
type Value struct {
	ID   int
	Op   Op
	Args []*Value
	// Imm carries the ir immediate: the constant bits for consti/constf, the
	// global index for loads/stores, the callee index for call, and the
	// parameter index for OpParam.
	Imm int64
	// Phi, on an OpCopy emitted by Destruct, names the phi variable whose
	// storage this copy writes; nil on ordinary value-defining copies.
	Phi *Value
}

// String returns a short diagnostic form ("v12 = addi v3 v7").
func (v *Value) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "v%d = %s", v.ID, v.Op)
	if v.Phi != nil {
		fmt.Fprintf(&sb, " [->v%d]", v.Phi.ID)
	}
	for _, a := range v.Args {
		fmt.Fprintf(&sb, " v%d", a.ID)
	}
	if v.Op == FromIR(ir.OpConstI) || v.Op == FromIR(ir.OpConstF) || v.Op.HasImm() {
		fmt.Fprintf(&sb, " [%d]", v.Imm)
	}
	return sb.String()
}

// HasImm reports whether the op's Imm field is meaningful.
func (op Op) HasImm() bool {
	if op.IsPseudo() {
		return op == OpParam
	}
	return op.IR().HasImm()
}

// Term is a block terminator over SSA values. For TermBr and TermSwitch,
// Src points at the original ir terminator carrying the site/orig identity
// and static prediction; edge blocks synthesised by Destruct have a nil Src.
type Term struct {
	Op     ir.TermOp
	Cond   *Value
	Val    *Value
	HasVal bool
	Then   *Block
	Else   *Block
	// Targets holds the case successors of a TermSwitch (outcome i jumps to
	// Targets[i], Else is the default); nil for every other terminator.
	Targets []*Block
	Src     *ir.Term
}

// Block is one SSA basic block.
type Block struct {
	ID int
	// Orig is the ir block this one descends from; nil for the edge blocks
	// inserted by Destruct while splitting critical edges.
	Orig *ir.Block
	// Weight is the execution-step cost the interpreter charges for the
	// original block (len(Orig.Instrs)+1); 0 for synthesised edge blocks,
	// which the interpreter never executed.
	Weight uint64
	Phis   []*Value
	Code   []*Value
	Term   Term
	// Preds lists predecessor blocks, one entry per incoming edge and in
	// deterministic edge order; phi argument i flows in over edge i. A block
	// branching to the same target on both arms appears twice.
	Preds []*Block

	// Idom is the immediate dominator (nil for the entry block); Kids are
	// the dominator-tree children in reverse-postorder. Build fills both.
	Idom *Block
	Kids []*Block

	df []*Block
}

// String returns the diagnostic label of the block.
func (b *Block) String() string {
	if b.Orig != nil {
		return b.Orig.String()
	}
	return fmt.Sprintf("edge%d", b.ID)
}

// Func is one function in SSA form.
type Func struct {
	// Ir is the source function.
	Ir     *ir.Func
	Entry  *Block
	Blocks []*Block
	// PhiVars lists former phi values demoted to plain multi-assignment
	// variables by Destruct: each is written by the OpCopy values whose Phi
	// field names it. Empty before Destruct.
	PhiVars []*Value

	nextID int
}

// NewValue creates a fresh value; it does not place it in a block.
func (f *Func) NewValue(op Op, imm int64, args ...*Value) *Value {
	v := &Value{ID: f.nextID, Op: op, Imm: imm, Args: args}
	f.nextID++
	return v
}

func (f *Func) newBlock(orig *ir.Block) *Block {
	b := &Block{ID: len(f.Blocks), Orig: orig}
	if orig != nil {
		b.Weight = uint64(len(orig.Instrs)) + 1
	}
	f.Blocks = append(f.Blocks, b)
	return b
}

// NumValues returns the number of value IDs allocated in the function.
func (f *Func) NumValues() int { return f.nextID }

// Program is a whole translation unit in SSA form. Funcs is parallel to
// Ir.Funcs (indexed by ir function ID).
type Program struct {
	Ir    *ir.Program
	Funcs []*Func
}

// Dump renders the function for tests and debugging.
func (f *Func) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s:\n", f.Ir.Name)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "  %s:", b)
		if len(b.Preds) > 0 {
			sb.WriteString(" <-")
			for _, p := range b.Preds {
				fmt.Fprintf(&sb, " %s", p)
			}
		}
		sb.WriteString("\n")
		for _, v := range b.Phis {
			fmt.Fprintf(&sb, "    %s\n", v)
		}
		for _, v := range b.Code {
			fmt.Fprintf(&sb, "    %s\n", v)
		}
		switch b.Term.Op {
		case ir.TermJmp:
			fmt.Fprintf(&sb, "    jmp %s\n", b.Term.Then)
		case ir.TermBr:
			fmt.Fprintf(&sb, "    br v%d %s %s\n", b.Term.Cond.ID, b.Term.Then, b.Term.Else)
		case ir.TermSwitch:
			fmt.Fprintf(&sb, "    switch v%d [", b.Term.Cond.ID)
			for i, t := range b.Term.Targets {
				if i > 0 {
					sb.WriteString(" ")
				}
				fmt.Fprintf(&sb, "%s", t)
			}
			fmt.Fprintf(&sb, "] else %s\n", b.Term.Else)
		case ir.TermRet:
			if b.Term.HasVal {
				fmt.Fprintf(&sb, "    ret v%d\n", b.Term.Val.ID)
			} else {
				sb.WriteString("    ret\n")
			}
		}
	}
	return sb.String()
}
