package analysis

import (
	"math"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/predict"
)

// This file implements the program-based (profile-free) half of the static
// branch prediction engine: Ball–Larus-style heuristics [BL93] adapted to the
// BL IR, with the hit rates of Wu–Larus [WL94] combined by Dempster–Shafer
// evidence theory into one per-site taken probability. Each heuristic that
// fires on a branch contributes a probability that the branch is taken; two
// pieces of evidence p1, p2 combine as
//
//	p = p1·p2 / (p1·p2 + (1−p1)·(1−p2))
//
// which is symmetric, associative, and has 0.5 as its identity — a heuristic
// that does not fire contributes nothing, and agreeing heuristics reinforce
// each other while disagreeing ones cancel. DESIGN.md §9 derives the rule
// and argues the soundness split against the SCCP facts in sccp.go.

// Heuristic identifies one branch-prediction heuristic. The loop heuristics
// come from the CFG's loop forest; the rest inspect the terminator's
// condition and the successor blocks.
type Heuristic uint8

const (
	// HeurLoopBranch: exactly one arm is a back edge; predict it (the loop
	// continues).
	HeurLoopBranch Heuristic = iota
	// HeurLoopExit: inside a loop, exactly one arm leaves it; predict the
	// staying arm.
	HeurLoopExit
	// HeurLoopHeader: exactly one arm enters a loop (its target is the
	// header of a loop not containing the branch); predict entering it.
	HeurLoopHeader
	// HeurOpcode: the condition is a comparison; equality tests and
	// less-than style tests predict not-taken, their negations taken.
	HeurOpcode
	// HeurGuard: the condition compares against a constant — an equality-
	// to-constant, sign test, or bounds check; sharpens HeurOpcode.
	HeurGuard
	// HeurCall: exactly one arm calls a subroutine; predict the other arm.
	HeurCall
	// HeurReturn: exactly one arm returns; predict the other arm.
	HeurReturn
	// HeurStore: exactly one arm stores to a global; predict the other arm.
	HeurStore

	numHeuristics
)

func (h Heuristic) String() string {
	switch h {
	case HeurLoopBranch:
		return "loop-branch"
	case HeurLoopExit:
		return "loop-exit"
	case HeurLoopHeader:
		return "loop-header"
	case HeurOpcode:
		return "opcode"
	case HeurGuard:
		return "guard"
	case HeurCall:
		return "call"
	case HeurReturn:
		return "return"
	case HeurStore:
		return "store"
	}
	return "heuristic(?)"
}

// heurProb is each heuristic's probability that its predicted direction is
// the one the branch takes, following the Wu–Larus hit rates with the loop
// heuristics calibrated on this repository's catalog.
var heurProb = [numHeuristics]float64{
	HeurLoopBranch: 0.88,
	HeurLoopExit:   0.80,
	HeurLoopHeader: 0.75,
	HeurOpcode:     0.62,
	HeurGuard:      0.72,
	HeurCall:       0.78,
	HeurReturn:     0.72,
	HeurStore:      0.55,
}

// combineDS is the Dempster–Shafer combination of two taken probabilities.
// The degenerate poles (0 or 1 against its complement) cannot arise from
// heurProb, which stays strictly inside (0, 1).
func combineDS(p1, p2 float64) float64 {
	num := p1 * p2
	den := num + (1-p1)*(1-p2)
	if den == 0 {
		return 0.5
	}
	return num / den
}

// SiteHeuristics is the heuristic evidence collected for one branch site.
type SiteHeuristics struct {
	Site int32
	Func string
	// Prob is the Dempster–Shafer combined probability that the branch is
	// taken; 0.5 when no heuristic fired.
	Prob float64
	// Fired lists the heuristics that contributed, in Heuristic order.
	Fired []Heuristic
	// LoopDepth is the nesting depth of the branch block (0 = not in a
	// loop).
	LoopDepth int
	// Switch marks a multi-way dispatch site. The two-way heuristics do
	// not apply there; the indirect clustering family predicts such sites
	// from profiled target frequencies instead.
	Switch bool
}

// Prediction maps the combined probability to a static direction: strictly
// above one half predicts taken, everything else not-taken (the
// repository-wide tie convention). Switch sites have no two-way direction
// and predict nothing.
func (sh *SiteHeuristics) Prediction() ir.Prediction {
	if sh.Switch {
		return ir.PredNone
	}
	if sh.Prob > 0.5 {
		return ir.PredTaken
	}
	return ir.PredNotTaken
}

// Confidence is the distance from indifference, scaled to [0, 1].
func (sh *SiteHeuristics) Confidence() float64 {
	return math.Abs(sh.Prob-0.5) * 2
}

// HeuristicSites runs every heuristic over each conditional branch of the
// program, using the Context's cached CFGs and loop forests. Branch sites
// must be numbered; the returned slice is indexed by site ID.
func HeuristicSites(c *Context) []SiteHeuristics {
	n := 0
	for _, f := range c.Prog.Funcs {
		for _, b := range f.Blocks {
			t := &b.Term
			if (t.Op == ir.TermBr && !t.SwTest) || t.Op == ir.TermSwitch {
				n++
			}
		}
	}
	out := make([]SiteHeuristics, n)
	for _, f := range c.Prog.Funcs {
		g := c.Graph(f)
		lf := c.Loops(f)
		for _, b := range f.Blocks {
			switch {
			case b.Term.Op == ir.TermSwitch:
				// Multi-way dispatch: no two-way evidence applies.
				out[b.Term.Site] = SiteHeuristics{
					Site: b.Term.Site, Func: f.Name, Prob: 0.5, Switch: true,
				}
			case b.Term.Op == ir.TermBr && !b.Term.SwTest:
				sh := &out[b.Term.Site]
				*sh = siteHeuristics(f, g, lf, b)
			}
		}
	}
	return out
}

// siteHeuristics evaluates one branch. Evidence accumulates multiplicatively
// via combineDS; each heuristic contributes its hit rate oriented toward the
// arm it predicts.
func siteHeuristics(f *ir.Func, g *cfg.Graph, lf *cfg.LoopForest, b *ir.Block) SiteHeuristics {
	sh := SiteHeuristics{Site: b.Term.Site, Func: f.Name, Prob: 0.5}
	then, els := b.Term.Then, b.Term.Else
	loop := lf.InnermostLoop(b)
	if loop != nil {
		sh.LoopDepth = loop.Depth
	}
	fire := func(h Heuristic, taken bool) {
		p := heurProb[h]
		if !taken {
			p = 1 - p
		}
		sh.Prob = combineDS(sh.Prob, p)
		sh.Fired = append(sh.Fired, h)
	}

	// Loop branch: follow the unique back edge.
	thenBack, elseBack := g.IsBackEdge(b, then), g.IsBackEdge(b, els)
	if thenBack != elseBack {
		fire(HeurLoopBranch, thenBack)
	}
	// Loop exit: stay in the loop.
	if loop != nil && !thenBack && !elseBack {
		thenExits, elseExits := !loop.Contains(then), !loop.Contains(els)
		if thenExits != elseExits {
			fire(HeurLoopExit, elseExits)
		}
	}
	// Loop header: prefer the arm that enters a loop the branch is outside
	// of (the branch guards the loop's preheader).
	thenEnters, elseEnters := entersLoop(lf, b, then), entersLoop(lf, b, els)
	if thenEnters != elseEnters {
		fire(HeurLoopHeader, thenEnters)
	}

	// Condition-shape heuristics need the comparison defining the condition.
	if cmp := condCmp(b); cmp != nil {
		if p, ok := predict.OpcodePrediction(cmp.Op); ok {
			fire(HeurOpcode, p == ir.PredTaken)
		}
		if p, ok := guardPrediction(cmp); ok {
			fire(HeurGuard, p == ir.PredTaken)
		}
	}

	// Successor-shape heuristics: avoid calls, returns, and stores.
	thenCall, elseCall := blockHasOp(then, ir.OpCall), blockHasOp(els, ir.OpCall)
	if thenCall != elseCall {
		fire(HeurCall, !thenCall)
	}
	thenRet, elseRet := then.Term.Op == ir.TermRet, els.Term.Op == ir.TermRet
	if thenRet != elseRet {
		fire(HeurReturn, !thenRet)
	}
	thenStore := blockHasOp(then, ir.OpStoreG) || blockHasOp(then, ir.OpStoreElem)
	elseStore := blockHasOp(els, ir.OpStoreG) || blockHasOp(els, ir.OpStoreElem)
	if thenStore != elseStore {
		fire(HeurStore, !thenStore)
	}
	return sh
}

// entersLoop reports whether the edge b→succ enters a natural loop that does
// not contain b (succ is such a loop's header).
func entersLoop(lf *cfg.LoopForest, b, succ *ir.Block) bool {
	l := lf.InnermostLoop(succ)
	for ; l != nil; l = l.Parent {
		if l.Header == succ && !l.Contains(b) {
			return true
		}
	}
	return false
}

// cmpInstr is the comparison that defines a branch condition, with constant
// operand values resolved by a backward scan of the branch block.
type cmpInstr struct {
	Op         ir.Op
	A, B       ir.Reg
	AConst     bool
	BConst     bool
	AImm, BImm int64
	AFloat     bool
	BFloat     bool
}

// condCmp locates the comparison defining the branch condition within the
// branch block (through mov chains), mirroring predict.Analyze's extraction
// but additionally resolving constant operands.
func condCmp(b *ir.Block) *cmpInstr {
	cond := b.Term.Cond
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		in := &b.Instrs[i]
		if !in.Op.HasDst() || in.Dst != cond {
			continue
		}
		if in.Op == ir.OpMov {
			cond = in.A
			continue
		}
		if !in.Op.IsCompare() {
			return nil
		}
		cmp := &cmpInstr{Op: in.Op, A: in.A, B: in.B}
		cmp.AImm, cmp.AFloat, cmp.AConst = constBefore(b, i, in.A)
		cmp.BImm, cmp.BFloat, cmp.BConst = constBefore(b, i, in.B)
		return cmp
	}
	return nil
}

// constBefore scans backward from instruction idx for the most recent
// definition of reg inside the block; a const definition yields its bits.
func constBefore(b *ir.Block, idx int, reg ir.Reg) (imm int64, isFloat, ok bool) {
	for i := idx - 1; i >= 0; i-- {
		in := &b.Instrs[i]
		if !in.Op.HasDst() || in.Dst != reg {
			continue
		}
		switch in.Op {
		case ir.OpConstI:
			return in.Imm, false, true
		case ir.OpConstF:
			return in.Imm, true, true
		}
		return 0, false, false
	}
	return 0, false, false
}

// guardPrediction fires on guard shapes — comparisons against a constant:
//
//   - equality to a constant is rarely true (sentinel and flag tests);
//   - sign tests against zero rarely see negative values;
//   - bounds checks against a constant array length rarely fire.
//
// All three predict the direction away from the "rare" outcome.
func guardPrediction(cmp *cmpInstr) (ir.Prediction, bool) {
	constSide := 0
	switch {
	case cmp.BConst && !cmp.AConst:
		constSide = 2
	case cmp.AConst && !cmp.BConst:
		constSide = 1
	default:
		return ir.PredNone, false
	}
	// Orient the comparison as "variable OP constant".
	op := cmp.Op
	if constSide == 1 {
		op = swapCompare(op)
	}
	switch op {
	case ir.OpEqI, ir.OpEqF:
		return ir.PredNotTaken, true
	case ir.OpNeI, ir.OpNeF:
		return ir.PredTaken, true
	case ir.OpLtI, ir.OpLeI:
		// v < c: a sign test (c == 0) predicts non-negative; a bounds
		// check (c > 0) predicts in-bounds, i.e. taken.
		c := cmp.BImm
		if constSide == 1 {
			c = cmp.AImm
		}
		if c <= 0 {
			return ir.PredNotTaken, true
		}
		return ir.PredTaken, true
	case ir.OpGtI, ir.OpGeI:
		c := cmp.BImm
		if constSide == 1 {
			c = cmp.AImm
		}
		if c <= 0 {
			return ir.PredTaken, true
		}
		return ir.PredNotTaken, true
	}
	return ir.PredNone, false
}

// swapCompare mirrors a comparison so its operands can be swapped:
// c OP v  ==  v OP' c.
func swapCompare(op ir.Op) ir.Op {
	switch op {
	case ir.OpLtI:
		return ir.OpGtI
	case ir.OpLeI:
		return ir.OpGeI
	case ir.OpGtI:
		return ir.OpLtI
	case ir.OpGeI:
		return ir.OpLeI
	case ir.OpLtF:
		return ir.OpGtF
	case ir.OpLeF:
		return ir.OpGeF
	case ir.OpGtF:
		return ir.OpLtF
	case ir.OpGeF:
		return ir.OpLeF
	}
	return op
}

// blockHasOp reports whether the block contains an instruction with the
// given opcode.
func blockHasOp(b *ir.Block, op ir.Op) bool {
	for i := range b.Instrs {
		if b.Instrs[i].Op == op {
			return true
		}
	}
	return false
}
