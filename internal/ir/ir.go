// Package ir defines the register-based intermediate representation that the
// whole reproduction is built on: programs, functions, basic blocks, typed
// three-address instructions, and branch terminators that carry the profiling
// identity (site and origin IDs) and the static prediction annotation used by
// the code-replication transformer.
//
// The IR is deliberately small but complete enough to compile the BL language
// (internal/lang) and to express every transformation the paper needs:
// conditional branches with distinct taken/not-taken successors, natural
// loops, calls with recursion, global scalars and arrays, and both integer
// and floating-point arithmetic. All registers are 64 bits wide; float values
// are stored as their IEEE-754 bit patterns and interpreted by typed opcodes.
package ir

import (
	"fmt"
	"math"
)

// Type is the static type of a value in the source language. At the IR level
// types only select opcode families; every register is a 64-bit cell.
type Type uint8

// The BL value types. TBool values are materialised as the integers 0 and 1.
const (
	TVoid Type = iota
	TInt
	TFloat
	TBool
)

func (t Type) String() string {
	switch t {
	case TVoid:
		return "void"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TBool:
		return "bool"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Reg names a virtual register inside a function frame. Registers are dense:
// a function with NRegs = n uses registers 0..n-1. Parameters occupy the
// first NParams registers.
type Reg int32

// NoReg marks an unused register operand.
const NoReg Reg = -1

// Prediction is a static branch prediction annotation attached to a Br
// terminator. The interpreter compares it with the actual outcome to count
// mispredictions of the transformed program.
type Prediction uint8

const (
	// PredNone means the branch carries no static prediction.
	PredNone Prediction = iota
	// PredTaken predicts the branch jumps to its Then successor.
	PredTaken
	// PredNotTaken predicts fall-through to the Else successor.
	PredNotTaken
)

func (p Prediction) String() string {
	switch p {
	case PredNone:
		return "none"
	case PredTaken:
		return "taken"
	case PredNotTaken:
		return "not-taken"
	}
	return fmt.Sprintf("pred(%d)", uint8(p))
}

// Instr is a single three-address instruction. The meaning of the operand
// fields depends on the opcode; see the Op documentation. Instructions are
// plain values (not an interface) so that blocks store them contiguously and
// the interpreter dispatches without allocation.
type Instr struct {
	Op  Op
	Dst Reg
	A   Reg
	B   Reg
	// Imm holds the integer immediate for OpConstI, the float bit pattern
	// for OpConstF, the global index for load/store opcodes, and the callee
	// function index for OpCall.
	Imm int64
	// Args holds the argument registers of OpCall; nil for every other
	// opcode.
	Args []Reg
}

// FloatImm returns the float64 immediate of an OpConstF instruction.
func (in *Instr) FloatImm() float64 { return math.Float64frombits(uint64(in.Imm)) }

// SetFloatImm stores f as the instruction's immediate bit pattern.
func (in *Instr) SetFloatImm(f float64) { in.Imm = int64(math.Float64bits(f)) }

// TermOp discriminates block terminators.
type TermOp uint8

const (
	// TermInvalid marks a block whose terminator has not been set yet;
	// validation rejects it.
	TermInvalid TermOp = iota
	// TermJmp is an unconditional jump to Then.
	TermJmp
	// TermBr is a conditional branch: if register Cond is non-zero control
	// transfers to Then (the branch is "taken"), otherwise to Else.
	TermBr
	// TermRet returns from the function, with the value in register A when
	// HasVal is set.
	TermRet
	// TermSwitch is an N-way indirect dispatch: register Cond selects case
	// target Targets[v] when 0 <= v < len(Targets), and the Else (default)
	// successor otherwise. The dispatch outcome index is v for in-range
	// values and len(Targets) for the default, so a switch with n case
	// targets has n+1 outcomes.
	TermSwitch
)

func (op TermOp) String() string {
	switch op {
	case TermInvalid:
		return "invalid"
	case TermJmp:
		return "jmp"
	case TermBr:
		return "br"
	case TermRet:
		return "ret"
	case TermSwitch:
		return "switch"
	}
	return fmt.Sprintf("term(%d)", uint8(op))
}

// Term is a block terminator. For TermBr it also carries the branch identity
// used by profiling and replication:
//
//   - Site uniquely identifies this branch instance in the current program;
//     sites are assigned by NumberBranches and reassigned after transforms.
//   - Orig identifies the source-level branch the site descends from. Clones
//     made by the replicator share the Orig of their original, so profiles
//     collected on the original program can be attributed to every copy.
//   - Pred is the static prediction for this site (per-copy after
//     replication).
//
// TermSwitch carries the same Site/Orig identity (switch dispatches are
// prediction sites too, numbered in the same dense space as conditional
// branches); its static prediction is Pred == PredTaken with PredIdx naming
// the predicted outcome index (len(Targets) predicts the default).
//
// A conditional branch with SwTest set is a clustering test: one equality
// test of a case-clustered switch's fast-path chain (internal/indirect). It
// keeps the governed switch's Site/Orig, and in the trace it is invisible
// except that taking it emits the switch event (Site, SwOutcome) the
// residual switch would have emitted — so clustered programs produce
// byte-identical traces. Its Pred/misprediction accounting stays binary.
type Term struct {
	Op     TermOp
	Cond   Reg
	A      Reg
	HasVal bool
	Then   *Block
	Else   *Block
	// Targets holds the case successors of a TermSwitch (outcome i jumps to
	// Targets[i]); nil for every other terminator.
	Targets []*Block
	Site    int32
	Orig    int32
	Pred    Prediction
	// PredIdx is the predicted outcome index of a predicted TermSwitch.
	PredIdx int32
	// SwTest marks a clustering test branch; SwOutcome is the switch
	// outcome it emits when taken.
	SwTest    bool
	SwOutcome int32
}

// Block is a basic block: a straight-line instruction sequence ended by one
// terminator. Blocks are identified within their function by ID (dense) and
// carry an optional name for diagnostics.
type Block struct {
	ID     int
	Name   string
	Instrs []Instr
	Term   Term
	// Dead marks a block that is intentionally unreachable from the entry
	// (e.g. a join point sealed by the front end after both arms returned).
	// Validate requires every block to be reachable or marked dead, so
	// transforms cannot silently orphan live code.
	Dead bool
}

// Succs appends the successor blocks of b to dst and returns it. The order
// is Then before Else, matching the taken/not-taken convention.
func (b *Block) Succs(dst []*Block) []*Block {
	switch b.Term.Op {
	case TermJmp:
		dst = append(dst, b.Term.Then)
	case TermBr:
		dst = append(dst, b.Term.Then, b.Term.Else)
	case TermSwitch:
		dst = append(dst, b.Term.Targets...)
		dst = append(dst, b.Term.Else)
	}
	return dst
}

// NumSuccs reports how many successors the block has.
func (b *Block) NumSuccs() int {
	switch b.Term.Op {
	case TermJmp:
		return 1
	case TermBr:
		return 2
	case TermSwitch:
		return len(b.Term.Targets) + 1
	default:
		return 0
	}
}

// String returns the block's diagnostic label.
func (b *Block) String() string {
	if b.Name != "" {
		return fmt.Sprintf("b%d.%s", b.ID, b.Name)
	}
	return fmt.Sprintf("b%d", b.ID)
}

// Func is one function: an entry block, a dense block list, and a frame of
// NRegs virtual registers whose first NParams registers receive the
// arguments.
type Func struct {
	Name    string
	ID      int
	NParams int
	NRegs   int
	RetType Type
	Blocks  []*Block
	Entry   *Block
}

// NewBlock appends a fresh empty block to the function and returns it.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{ID: len(f.Blocks), Name: name}
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := Reg(f.NRegs)
	f.NRegs++
	return r
}

// Renumber re-assigns dense block IDs in the current Blocks order.
func (f *Func) Renumber() {
	for i, b := range f.Blocks {
		b.ID = i
	}
}

// NumInstrs counts the instructions in the function, including one unit for
// each terminator. This is the code-size metric reported in every experiment.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs) + 1
	}
	return n
}

// Global is a program-level variable: a scalar (Len == 1 used as value cell)
// or a one-dimensional array of Len elements. Init provides the initial bit
// patterns; missing elements are zero.
type Global struct {
	Name  string
	ID    int
	Type  Type // element type: TInt or TFloat (TBool stored as TInt)
	Len   int
	Init  []int64
	Array bool
}

// Program is a complete translation unit.
type Program struct {
	Funcs   []*Func
	Globals []*Global

	funcIdx map[string]int
	globIdx map[string]int
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{
		funcIdx: make(map[string]int),
		globIdx: make(map[string]int),
	}
}

// AddFunc appends f, assigns its ID, and indexes it by name. Adding two
// functions with the same name is an error.
func (p *Program) AddFunc(f *Func) error {
	if _, dup := p.funcIdx[f.Name]; dup {
		return fmt.Errorf("ir: duplicate function %q", f.Name)
	}
	f.ID = len(p.Funcs)
	p.funcIdx[f.Name] = f.ID
	p.Funcs = append(p.Funcs, f)
	return nil
}

// AddGlobal appends g, assigns its ID, and indexes it by name.
func (p *Program) AddGlobal(g *Global) error {
	if _, dup := p.globIdx[g.Name]; dup {
		return fmt.Errorf("ir: duplicate global %q", g.Name)
	}
	g.ID = len(p.Globals)
	p.globIdx[g.Name] = g.ID
	p.Globals = append(p.Globals, g)
	return nil
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	if i, ok := p.funcIdx[name]; ok {
		return p.Funcs[i]
	}
	return nil
}

// Global returns the global with the given name, or nil.
func (p *Program) Global(name string) *Global {
	if i, ok := p.globIdx[name]; ok {
		return p.Globals[i]
	}
	return nil
}

// NumInstrs is the program code size in IR instructions (terminators count
// one each).
func (p *Program) NumInstrs() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// NumberBranches walks every function in order and assigns dense Site IDs to
// all prediction sites: conditional branches and switch dispatches share one
// numbering space. When fresh is true the Orig IDs are reset to the new site
// IDs (done once on the original program); otherwise Orig values are
// preserved (done after transforms, so copies keep their ancestry). It
// returns the number of branch sites.
//
// Clustering test branches (SwTest) are not sites of their own: they keep
// the Site/Orig of the switch they stand in for, so renumbering a clustered
// program is a no-op as long as block walk order is preserved (the residual
// switch occupies its original's walk position).
func (p *Program) NumberBranches(fresh bool) int {
	site := int32(0)
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if !b.Term.isSite() {
				continue
			}
			b.Term.Site = site
			if fresh {
				b.Term.Orig = site
			}
			site++
		}
	}
	return int(site)
}

// isSite reports whether the terminator owns a prediction site ID.
func (t *Term) isSite() bool {
	return (t.Op == TermBr && !t.SwTest) || t.Op == TermSwitch
}

// BranchSite describes one prediction site (conditional branch or switch
// dispatch) for analyses that need to map site IDs back to their location.
type BranchSite struct {
	Func  *Func
	Block *Block
	Site  int32
	Orig  int32
	// Switch is set when the site is a TermSwitch dispatch rather than a
	// two-way conditional branch.
	Switch bool
}

// BranchSites returns the table of all branch sites in site order.
// NumberBranches must have been called first.
func (p *Program) BranchSites() []BranchSite {
	var sites []BranchSite
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.Term.isSite() {
				sites = append(sites, BranchSite{
					Func: f, Block: b, Site: b.Term.Site, Orig: b.Term.Orig,
					Switch: b.Term.Op == TermSwitch,
				})
			}
		}
	}
	// Sites were assigned in walk order, so the slice is already sorted by
	// Site; keep that invariant explicit for callers indexing by site ID.
	for i := range sites {
		if int(sites[i].Site) != i {
			// Defensive: renumber if a transform forgot to.
			p.NumberBranches(false)
			return p.BranchSites()
		}
	}
	return sites
}
