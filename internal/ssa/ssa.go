// Package ssa lowers the register IR (internal/ir) into static single
// assignment form for the SCCP analysis (internal/analysis): construction
// computes dominators and rewrites every register into versioned values
// joined by phi nodes (mem2reg).
//
// Construction is conservative about observable behaviour: a conditional
// branch is never folded unless both arms coincide, every switch stays a
// dispatch site, and every block keeps a pointer to the ir.Block it
// descends from, so analysis results map back onto IR branch sites.
package ssa

import "repro/internal/ir"

// Op is an SSA operation. Values below pseudoBase are lifted ir.Op codes;
// the pseudo-operations above it exist only in SSA form.
type Op uint16

// pseudoBase is above every ir.Op (ir opcodes are a small dense enum).
const pseudoBase Op = 0x100

const (
	// OpPhi selects one argument per predecessor edge of its block.
	OpPhi Op = pseudoBase + iota
	// OpParam is the incoming value of parameter Imm.
	OpParam
)

// IR returns the underlying ir opcode; only meaningful below pseudoBase.
func (op Op) IR() ir.Op { return ir.Op(op) }

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
}

// Term is a block terminator over SSA values. For TermBr and TermSwitch,
// Src points at the original ir terminator carrying the site/orig identity
// and static prediction.
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
	// Orig is the ir block this one descends from.
	Orig *ir.Block
	Phis []*Value
	Code []*Value
	Term Term
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
func (b *Block) String() string { return b.Orig.String() }

// Func is one function in SSA form.
type Func struct {
	// Ir is the source function.
	Ir     *ir.Func
	Entry  *Block
	Blocks []*Block

	nextID int
}

// newValue creates a fresh value; it does not place it in a block.
func (f *Func) newValue(op Op, imm int64, args ...*Value) *Value {
	v := &Value{ID: f.nextID, Op: op, Imm: imm, Args: args}
	f.nextID++
	return v
}

func (f *Func) newBlock(orig *ir.Block) *Block {
	b := &Block{ID: len(f.Blocks), Orig: orig}
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
