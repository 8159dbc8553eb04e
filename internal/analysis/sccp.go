package analysis

import (
	"math"
	"math/bits"

	"repro/internal/ir"
	"repro/internal/ssa"
)

// This file implements sparse conditional constant propagation (Wegman–
// Zadeck) with an interval (value-range) lattice over the SSA form of
// internal/ssa. It proves branches one-way: a condition whose range excludes
// zero is always taken, one pinned to zero is never taken, and a block no
// executable edge reaches is dead. The proofs feed the static predictability
// report (decided sites need no replication budget) and the dead-branch /
// always-taken diagnostics of the StaticPredict pass.
//
// Soundness contract (asserted by FuzzStaticSoundness and the catalog
// consistency test): a branch proven one-way is never observed going the
// other way in any recorded trace. Everything the analysis cannot model —
// globals, array elements, call results, parameters, float arithmetic,
// potentially-wrapping integer arithmetic — is bottom (any value), and
// interval transfer functions mirror the interpreter's exact two's-
// complement semantics, collapsing to bottom whenever a bound computation
// could wrap.

// BranchFact is the SCCP verdict for one branch site.
type BranchFact uint8

const (
	// FactNone: the branch was not statically decided.
	FactNone BranchFact = iota
	// FactAlwaysTaken: the condition is provably non-zero on every
	// execution reaching the branch.
	FactAlwaysTaken
	// FactNeverTaken: the condition is provably zero; the taken arm is a
	// dead branch.
	FactNeverTaken
	// FactUnreachable: no executable path reaches the branch at all.
	FactUnreachable
)

func (f BranchFact) String() string {
	switch f {
	case FactAlwaysTaken:
		return "always-taken"
	case FactNeverTaken:
		return "never-taken"
	case FactUnreachable:
		return "unreachable"
	}
	return "undecided"
}

// Decided reports whether the fact pins the branch's direction.
func (f BranchFact) Decided() bool { return f == FactAlwaysTaken || f == FactNeverTaken }

// SCCPResult maps every numbered branch site to its verdict.
type SCCPResult struct {
	// Facts is indexed by branch site ID; sites the analysis never saw
	// (e.g. in functions SSA construction rejected) stay FactNone.
	Facts []BranchFact
}

// SCCP runs the analysis over every function of a branch-numbered program.
// The program is not modified; SSA construction works on a private lowering.
func SCCP(prog *ir.Program) (*SCCPResult, error) {
	n := 0
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			t := &b.Term
			if (t.Op == ir.TermBr && !t.SwTest) || t.Op == ir.TermSwitch {
				n++
			}
		}
	}
	res := &SCCPResult{Facts: make([]BranchFact, n)}
	sp, err := ssa.Build(prog)
	if err != nil {
		return nil, err
	}
	var st sccpState
	for _, f := range sp.Funcs {
		runSCCP(&st, f, res)
	}
	return res, nil
}

// --- interval lattice ----------------------------------------------------

const (
	lTop    uint8 = iota // unvisited / no executable definition yet
	lIRange              // integer in [Lo, Hi]
	lFConst              // float constant; bits in Lo
	lBot                 // any value
)

// lval is one lattice element.
type lval struct {
	tag    uint8
	lo, hi int64
}

var (
	top = lval{tag: lTop}
	bot = lval{tag: lBot}
)

func iconst(c int64) lval      { return lval{tag: lIRange, lo: c, hi: c} }
func irange(lo, hi int64) lval { return lval{tag: lIRange, lo: lo, hi: hi} }
func fconst(bits int64) lval   { return lval{tag: lFConst, lo: bits} }
func (v lval) isConst() bool   { return v.tag == lIRange && v.lo == v.hi }
func (v lval) contains0() bool { return v.tag == lIRange && v.lo <= 0 && 0 <= v.hi }
func (v lval) eq(w lval) bool  { return v.tag == w.tag && v.lo == w.lo && v.hi == w.hi }
func fullRange() lval          { return irange(math.MinInt64, math.MaxInt64) }

// join is the lattice meet toward bottom: top is the identity, bottom
// absorbs, intervals union, and float constants stay only when equal.
func join(a, b lval) lval {
	switch {
	case a.tag == lTop:
		return b
	case b.tag == lTop:
		return a
	case a.tag == lBot || b.tag == lBot:
		return bot
	case a.tag != b.tag:
		return bot
	case a.tag == lFConst:
		if a.lo == b.lo {
			return a
		}
		return bot
	}
	return irange(min64(a.lo, b.lo), max64(a.hi, b.hi))
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// addOv adds with wrap detection.
func addOv(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func subOv(a, b int64) (int64, bool) {
	if b == math.MinInt64 {
		if a >= 0 {
			return 0, false
		}
		return a - b, true
	}
	return addOv(a, -b)
}

func mulOv(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a || (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		return 0, false
	}
	return p, true
}

// corners builds the tightest interval covering every given corner value;
// any wrapped corner collapses to the full range.
func corners(vals ...int64) lval {
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min64(lo, v), max64(hi, v)
	}
	return irange(lo, hi)
}

// --- per-function driver -------------------------------------------------

// edgeRef identifies one incoming CFG edge as (target block, pred index).
type edgeRef struct {
	to  *ssa.Block
	idx int
}

// sccpState is the analysis state of one function. Every table is a flat
// slice keyed by the dense IDs ssa.Build assigns — values, blocks, and
// incoming edges numbered at a per-block prefix offset — and SCCP reuses
// the slices from one function to the next.
type sccpState struct {
	val  []lval // by value ID
	hits []int  // widening counter by value ID

	blockExec []bool // by block ID
	// edgeOff[b] numbers block b's incoming edges: edge (b, i) is
	// edgeExec[edgeOff[b]+i].
	edgeOff  []int
	edgeExec []bool

	// users[userOff[v]:userOff[v+1]] are the values consuming value v, and
	// conds[condOff[v]:condOff[v+1]] the blocks branching on it, both in
	// block order; defIn maps a value ID to its defining block.
	userOff, condOff []int
	users            []*ssa.Value
	conds            []*ssa.Block
	defIn            []*ssa.Block

	flowWork []edgeRef
	ssaWork  []*ssa.Value
	args     []lval // operand scratch for evalValue
}

// widenAfter caps how many times a value's interval may grow before its
// moving bounds are widened to the extremes, bounding the chain height.
const widenAfter = 8

// resize returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reset sizes the tables for f and fills the edge numbering, def sites and
// use lists.
func (st *sccpState) reset(f *ssa.Func) {
	nv, nb := f.NumValues(), len(f.Blocks)
	st.val = resize(st.val, nv)
	st.hits = resize(st.hits, nv)
	st.defIn = resize(st.defIn, nv)
	st.blockExec = resize(st.blockExec, nb)
	st.edgeOff = resize(st.edgeOff, nb+1)
	for _, b := range f.Blocks {
		st.edgeOff[b.ID+1] = st.edgeOff[b.ID] + len(b.Preds)
	}
	st.edgeExec = resize(st.edgeExec, st.edgeOff[nb])

	// Use lists, counted then filled (offsets shifted by one so the fill
	// cursor ends where the next list starts).
	st.userOff = resize(st.userOff, nv+2)
	st.condOff = resize(st.condOff, nv+2)
	eachUse := func(visit func(user *ssa.Value, arg int)) {
		for _, b := range f.Blocks {
			for _, vs := range [2][]*ssa.Value{b.Phis, b.Code} {
				for _, v := range vs {
					for _, a := range v.Args {
						visit(v, a.ID)
					}
				}
			}
		}
	}
	eachUse(func(_ *ssa.Value, a int) { st.userOff[a+2]++ })
	for _, b := range f.Blocks {
		if b.Term.Cond != nil {
			st.condOff[b.Term.Cond.ID+2]++
		}
	}
	for v := 2; v < nv+2; v++ {
		st.userOff[v] += st.userOff[v-1]
		st.condOff[v] += st.condOff[v-1]
	}
	st.users = resize(st.users, st.userOff[nv+1])
	st.conds = resize(st.conds, st.condOff[nv+1])
	eachUse(func(v *ssa.Value, a int) {
		st.users[st.userOff[a+1]] = v
		st.userOff[a+1]++
	})
	for _, b := range f.Blocks {
		if b.Term.Cond != nil {
			c := b.Term.Cond.ID
			st.conds[st.condOff[c+1]] = b
			st.condOff[c+1]++
		}
		for _, vs := range [2][]*ssa.Value{b.Phis, b.Code} {
			for _, v := range vs {
				st.defIn[v.ID] = b
			}
		}
	}
	st.userOff, st.condOff = st.userOff[:nv+1], st.condOff[:nv+1]
}

func runSCCP(st *sccpState, f *ssa.Func, res *SCCPResult) {
	st.reset(f)
	st.markBlock(f.Entry)
	for len(st.flowWork) > 0 || len(st.ssaWork) > 0 {
		for len(st.flowWork) > 0 {
			e := st.flowWork[len(st.flowWork)-1]
			st.flowWork = st.flowWork[:len(st.flowWork)-1]
			if st.edgeExec[st.edgeOff[e.to.ID]+e.idx] {
				continue
			}
			st.edgeExec[st.edgeOff[e.to.ID]+e.idx] = true
			// New incoming edge: phis see a new operand either way; the
			// block body runs once on first execution.
			first := !st.blockExec[e.to.ID]
			if first {
				st.markBlock(e.to)
			} else {
				for _, v := range e.to.Phis {
					st.evalValue(v)
				}
			}
		}
		for len(st.ssaWork) > 0 {
			v := st.ssaWork[len(st.ssaWork)-1]
			st.ssaWork = st.ssaWork[:len(st.ssaWork)-1]
			if b := st.defIn[v.ID]; b != nil && st.blockExec[b.ID] {
				st.evalValue(v)
			}
		}
	}

	// Verdicts. SwTest branches share their governing switch's site and
	// carry no direction fact of their own; switch sites get at most the
	// unreachability verdict (a multi-way dispatch has no taken direction
	// the binary fact lattice could pin).
	for _, b := range f.Blocks {
		if b.Term.Src == nil || b.Term.Src.SwTest {
			continue
		}
		site := b.Term.Src.Site
		if int(site) >= len(res.Facts) {
			continue
		}
		switch b.Term.Op {
		case ir.TermSwitch:
			if !st.blockExec[b.ID] {
				res.Facts[site] = FactUnreachable
			}
		case ir.TermBr:
			if !st.blockExec[b.ID] {
				res.Facts[site] = FactUnreachable
				continue
			}
			thenOK := st.edgeExec[st.edgeOff[b.Term.Then.ID]+b.PredIdx[0]]
			elseOK := st.edgeExec[st.edgeOff[b.Term.Else.ID]+b.PredIdx[1]]
			switch {
			case thenOK && !elseOK:
				res.Facts[site] = FactAlwaysTaken
			case elseOK && !thenOK:
				res.Facts[site] = FactNeverTaken
			}
		}
	}
}

// markBlock makes a block executable and evaluates its body and terminator.
func (st *sccpState) markBlock(b *ssa.Block) {
	st.blockExec[b.ID] = true
	for _, v := range b.Phis {
		st.evalValue(v)
	}
	for _, v := range b.Code {
		st.evalValue(v)
	}
	st.evalTerm(b)
}

// setVal lowers a value in the lattice, widening runaway intervals, and
// queues its consumers when it moved.
func (st *sccpState) setVal(v *ssa.Value, nv lval) {
	old := st.val[v.ID]
	nv = join(old, nv) // force a descending chain
	if nv.eq(old) {
		return
	}
	if nv.tag == lIRange {
		st.hits[v.ID]++
		if st.hits[v.ID] > widenAfter && old.tag == lIRange {
			if nv.lo < old.lo {
				nv.lo = math.MinInt64
			}
			if nv.hi > old.hi {
				nv.hi = math.MaxInt64
			}
		}
	}
	st.val[v.ID] = nv
	st.ssaWork = append(st.ssaWork, st.users[st.userOff[v.ID]:st.userOff[v.ID+1]]...)
	for _, cb := range st.conds[st.condOff[v.ID]:st.condOff[v.ID+1]] {
		if st.blockExec[cb.ID] {
			st.evalTerm(cb)
		}
	}
}

// evalValue recomputes one value's lattice element.
func (st *sccpState) evalValue(v *ssa.Value) {
	switch v.Op {
	case ssa.OpPhi:
		b := st.defIn[v.ID]
		acc := top
		for i, a := range v.Args {
			if i < len(b.Preds) && st.edgeExec[st.edgeOff[b.ID]+i] {
				acc = join(acc, st.val[a.ID])
			}
		}
		st.setVal(v, acc)
		return
	case ssa.OpParam:
		// Intraprocedural: parameters carry arbitrary caller values.
		st.setVal(v, bot)
		return
	}
	op := v.Op.IR()
	switch op {
	case ir.OpConstI:
		st.setVal(v, iconst(v.Imm))
		return
	case ir.OpConstF:
		st.setVal(v, fconst(v.Imm))
		return
	case ir.OpMov:
		st.setVal(v, st.val[v.Args[0].ID])
		return
	}
	if !op.HasDst() {
		return
	}
	// Any top operand: wait for more information (standard optimistic SCCP).
	st.args = st.args[:0]
	for _, a := range v.Args {
		av := st.val[a.ID]
		if av.tag == lTop {
			return
		}
		st.args = append(st.args, av)
	}
	st.setVal(v, transfer(op, st.args))
}

// evalTerm marks the executable outgoing edges of b given the current
// condition value.
func (st *sccpState) evalTerm(b *ssa.Block) {
	switch b.Term.Op {
	case ir.TermJmp:
		st.pushEdge(b.Term.Then, b.PredIdx[0])
	case ir.TermBr:
		cond := st.val[b.Term.Cond.ID]
		switch {
		case cond.tag == lTop:
			// No executable definition yet; revisited when it lowers.
		case cond.tag == lIRange && !cond.contains0():
			st.pushEdge(b.Term.Then, b.PredIdx[0])
		case cond.tag == lIRange && cond.isConst(): // the constant is 0
			st.pushEdge(b.Term.Else, b.PredIdx[1])
		default:
			// Undecided ranges, floats (whose bit patterns the branch
			// truthiness test inspects), and bottom: both arms.
			st.pushEdge(b.Term.Then, b.PredIdx[0])
			st.pushEdge(b.Term.Else, b.PredIdx[1])
		}
	case ir.TermSwitch:
		cond := st.val[b.Term.Cond.ID]
		n := len(b.Term.Targets)
		switch {
		case cond.tag == lTop:
			// No executable definition yet; revisited when it lowers.
		case cond.tag == lIRange:
			// Only case edges whose label intersects the range can run;
			// the default needs a range value outside [0, n).
			for i, t := range b.Term.Targets {
				if cond.lo <= int64(i) && int64(i) <= cond.hi {
					st.pushEdge(t, b.PredIdx[i])
				}
			}
			if cond.lo < 0 || cond.hi >= int64(n) {
				st.pushEdge(b.Term.Else, b.PredIdx[n])
			}
		default:
			// Floats and bottom: every outcome is possible.
			for i, t := range b.Term.Targets {
				st.pushEdge(t, b.PredIdx[i])
			}
			st.pushEdge(b.Term.Else, b.PredIdx[n])
		}
	}
}

// pushEdge queues the edge entering to as its predecessor idx, unless it
// is already executable.
func (st *sccpState) pushEdge(to *ssa.Block, idx int) {
	if !st.edgeExec[st.edgeOff[to.ID]+idx] {
		st.flowWork = append(st.flowWork, edgeRef{to, idx})
	}
}

// --- transfer functions --------------------------------------------------

// transfer evaluates one operation over interval operands, mirroring the
// interpreter's exact semantics. Anything that could wrap, trap, or touch
// state outside the SSA value graph is bottom.
func transfer(op ir.Op, args []lval) lval {
	// Bottom operands: a handful of ops still bound their result.
	for _, a := range args {
		if a.tag == lBot || a.tag == lFConst {
			return transferWeak(op, args)
		}
	}
	switch op {
	case ir.OpAddI:
		lo, ok1 := addOv(args[0].lo, args[1].lo)
		hi, ok2 := addOv(args[0].hi, args[1].hi)
		if !ok1 || !ok2 {
			return fullRange()
		}
		return irange(lo, hi)
	case ir.OpSubI:
		lo, ok1 := subOv(args[0].lo, args[1].hi)
		hi, ok2 := subOv(args[0].hi, args[1].lo)
		if !ok1 || !ok2 {
			return fullRange()
		}
		return irange(lo, hi)
	case ir.OpMulI:
		var vals [4]int64
		idx := 0
		for _, a := range [2]int64{args[0].lo, args[0].hi} {
			for _, b := range [2]int64{args[1].lo, args[1].hi} {
				p, ok := mulOv(a, b)
				if !ok {
					return fullRange()
				}
				vals[idx] = p
				idx++
			}
		}
		return corners(vals[:]...)
	case ir.OpDivI:
		return divRange(args[0], args[1])
	case ir.OpModI:
		return modRange(args[0], args[1])
	case ir.OpNegI:
		if args[0].lo == math.MinInt64 {
			return fullRange()
		}
		return irange(-args[0].hi, -args[0].lo)
	case ir.OpNotI:
		switch {
		case !args[0].contains0():
			return iconst(0)
		case args[0].isConst():
			return iconst(1)
		}
		return irange(0, 1)
	case ir.OpAbsI:
		return absRange(args[0])
	case ir.OpMinI:
		return irange(min64(args[0].lo, args[1].lo), min64(args[0].hi, args[1].hi))
	case ir.OpMaxI:
		return irange(max64(args[0].lo, args[1].lo), max64(args[0].hi, args[1].hi))
	case ir.OpAndI, ir.OpOrI, ir.OpXorI:
		return bitRange(op, args[0], args[1])
	case ir.OpShlI:
		if args[1].isConst() {
			return shlRange(args[0], uint64(args[1].lo)&63)
		}
		return fullRange()
	case ir.OpShrI:
		if args[1].isConst() {
			s := uint64(args[1].lo) & 63
			// Arithmetic shift is monotone in the shifted value.
			return irange(args[0].lo>>s, args[0].hi>>s)
		}
		return fullRange()
	case ir.OpEqI, ir.OpNeI, ir.OpLtI, ir.OpLeI, ir.OpGtI, ir.OpGeI:
		return cmpRange(op, args[0], args[1])
	case ir.OpItoF:
		if args[0].isConst() {
			return fconst(int64(math.Float64bits(float64(args[0].lo))))
		}
		return bot
	}
	return transferWeak(op, args)
}

// transferWeak handles operations whose operands include bottom or float
// values: only shapes with a result bound independent of the weak operand,
// plus fully-constant float compares, produce information.
func transferWeak(op ir.Op, args []lval) lval {
	switch op {
	case ir.OpEqI, ir.OpNeI, ir.OpLtI, ir.OpLeI, ir.OpGtI, ir.OpGeI,
		ir.OpEqF, ir.OpNeF, ir.OpLtF, ir.OpLeF, ir.OpGtF, ir.OpGeF:
		if op == ir.OpEqF || op == ir.OpNeF || op == ir.OpLtF ||
			op == ir.OpLeF || op == ir.OpGtF || op == ir.OpGeF {
			if len(args) == 2 && args[0].tag == lFConst && args[1].tag == lFConst {
				return fcmp(op, args[0].lo, args[1].lo)
			}
		}
		return irange(0, 1)
	case ir.OpNotI:
		return irange(0, 1)
	}
	return bot
}

// fcmp folds a float comparison of two constants with IEEE-754 semantics.
func fcmp(op ir.Op, abits, bbits int64) lval {
	a, b := math.Float64frombits(uint64(abits)), math.Float64frombits(uint64(bbits))
	var r bool
	switch op {
	case ir.OpEqF:
		r = a == b
	case ir.OpNeF:
		r = a != b
	case ir.OpLtF:
		r = a < b
	case ir.OpLeF:
		r = a <= b
	case ir.OpGtF:
		r = a > b
	case ir.OpGeF:
		r = a >= b
	}
	if r {
		return iconst(1)
	}
	return iconst(0)
}

// divRange bounds integer division; only a constant non-zero divisor is
// modelled (a divisor range containing zero may trap, and the MinInt64/-1
// corner follows the interpreter's saturation).
func divRange(a, b lval) lval {
	if !b.isConst() || b.lo == 0 {
		return fullRange()
	}
	c := b.lo
	if c == -1 && a.lo == math.MinInt64 {
		return fullRange()
	}
	return corners(a.lo/c, a.hi/c)
}

// modRange bounds integer remainder by a constant non-zero divisor: the
// result's sign follows the dividend and its magnitude stays below |c|.
func modRange(a, b lval) lval {
	if !b.isConst() || b.lo == 0 {
		return fullRange()
	}
	c := b.lo
	if c == -1 {
		return iconst(0) // interpreter: x % -1 == 0, including MinInt64
	}
	if c == math.MinInt64 {
		return fullRange()
	}
	m := c
	if m < 0 {
		m = -m
	}
	lo, hi := -(m - 1), m-1
	if a.lo >= 0 {
		lo = 0
	}
	if a.hi <= 0 {
		hi = 0
	}
	return irange(lo, hi)
}

func absRange(a lval) lval {
	if a.lo == math.MinInt64 {
		// The interpreter's abs(MinInt64) stays MinInt64.
		return fullRange()
	}
	switch {
	case a.lo >= 0:
		return a
	case a.hi <= 0:
		return irange(-a.hi, -a.lo)
	}
	return irange(0, max64(-a.lo, a.hi))
}

// bitRange bounds bitwise operations for non-negative operands: results
// stay under the next power of two covering both inputs (and under either
// input for AND). Negative operands collapse to the full range.
func bitRange(op ir.Op, a, b lval) lval {
	if a.lo < 0 || b.lo < 0 {
		return fullRange()
	}
	switch op {
	case ir.OpAndI:
		return irange(0, min64(a.hi, b.hi))
	case ir.OpOrI, ir.OpXorI:
		n := bits.Len64(uint64(a.hi) | uint64(b.hi))
		if n >= 63 {
			return irange(0, math.MaxInt64)
		}
		return irange(0, int64(1)<<n-1)
	}
	return fullRange()
}

// shlRange bounds a left shift by a constant amount for non-negative values
// that provably cannot shift into or past the sign bit.
func shlRange(a lval, s uint64) lval {
	if a.lo < 0 || s >= 63 {
		return fullRange()
	}
	if a.hi > 0 && bits.Len64(uint64(a.hi))+int(s) > 63 {
		return fullRange()
	}
	return irange(a.lo<<s, a.hi<<s)
}

// cmpRange evaluates an integer comparison over ranges, deciding it when
// the ranges are ordered or disjoint.
func cmpRange(op ir.Op, a, b lval) lval {
	decided := func(v bool) lval {
		if v {
			return iconst(1)
		}
		return iconst(0)
	}
	switch op {
	case ir.OpEqI:
		if a.isConst() && b.isConst() {
			return decided(a.lo == b.lo)
		}
		if a.lo > b.hi || b.lo > a.hi {
			return decided(false)
		}
	case ir.OpNeI:
		if a.isConst() && b.isConst() {
			return decided(a.lo != b.lo)
		}
		if a.lo > b.hi || b.lo > a.hi {
			return decided(true)
		}
	case ir.OpLtI:
		if a.hi < b.lo {
			return decided(true)
		}
		if a.lo >= b.hi {
			return decided(false)
		}
	case ir.OpLeI:
		if a.hi <= b.lo {
			return decided(true)
		}
		if a.lo > b.hi {
			return decided(false)
		}
	case ir.OpGtI:
		if a.lo > b.hi {
			return decided(true)
		}
		if a.hi <= b.lo {
			return decided(false)
		}
	case ir.OpGeI:
		if a.lo >= b.hi {
			return decided(true)
		}
		if a.hi < b.lo {
			return decided(false)
		}
	}
	return irange(0, 1)
}
