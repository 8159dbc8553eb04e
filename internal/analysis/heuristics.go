package analysis

import (
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

// Heuristic identifies one branch-prediction heuristic. Each is a reading
// of facts in predict.SiteFeatures: the loop heuristics of the CFG's loop
// forest, the rest of the terminator's condition and successor blocks.
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

// HeuristicSites is the Dempster–Shafer reading of predict's per-site
// feature vector, extracted over the Context's cached CFGs and loop
// forests, with no SCCP facts applied. Branch sites must be numbered; the
// returned slice is indexed by site ID.
func HeuristicSites(c *Context) []SiteReport {
	feats := predict.AnalyzeWith(c.Prog, func(f *ir.Func) (*cfg.Graph, *cfg.LoopForest) {
		return c.Graph(f), c.Loops(f)
	})
	out := make([]SiteReport, len(feats))
	for i := range feats {
		foldSite(&out[i], &feats[i])
	}
	return out
}

// foldSite fills sh with the heuristics that fire on one site. Evidence
// accumulates multiplicatively via combineDS; each heuristic contributes its
// hit rate oriented toward the arm it predicts. Multi-way dispatch sites get
// no two-way evidence.
func foldSite(sh *SiteReport, ft *predict.SiteFeatures) {
	*sh = SiteReport{Site: ft.Site, Func: ft.Func, Prob: 0.5, LoopDepth: ft.LoopDepth, Switch: ft.Switch}
	defer sh.settle()
	if ft.Switch {
		return
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
	if ft.TakenBack != ft.ElseBack {
		fire(HeurLoopBranch, ft.TakenBack)
	}
	// Loop exit: stay in the loop. Consulted only when neither arm is a
	// back edge; predict.BallLarus instead consults it whenever the
	// back-edge test ties, including when both arms are back edges.
	if ft.LoopDepth > 0 && !ft.TakenBack && !ft.ElseBack && ft.TakenExits != ft.ElseExits {
		fire(HeurLoopExit, ft.ElseExits)
	}
	// Loop header: prefer the arm that enters a loop the branch is outside
	// of (the branch guards the loop's preheader).
	if ft.TakenEnters != ft.ElseEnters {
		fire(HeurLoopHeader, ft.TakenEnters)
	}

	// Condition-shape heuristics.
	if p, ok := predict.OpcodePrediction(ft.CmpOp); ok {
		fire(HeurOpcode, p == ir.PredTaken)
	}
	// Guard here means a comparison against a constant; predict.BallLarus's
	// Guard is a different fact: a successor uses the comparison operands.
	if p, ok := guardPrediction(ft.GuardOp, ft.GuardImm); ok {
		fire(HeurGuard, p == ir.PredTaken)
	}

	// Successor-shape heuristics: avoid calls, returns, and stores.
	if ft.TakenCall != ft.ElseCall {
		fire(HeurCall, !ft.TakenCall)
	}
	if ft.TakenRet != ft.ElseRet {
		fire(HeurReturn, !ft.TakenRet)
	}
	if ft.TakenStore != ft.ElseStore {
		fire(HeurStore, !ft.TakenStore)
	}
}

// guardPrediction fires on guard shapes — a comparison oriented as
// "variable op c" against a constant c:
//
//   - equality to a constant is rarely true (sentinel and flag tests);
//   - sign tests against zero rarely see negative values;
//   - bounds checks against a constant array length rarely fire.
//
// All three predict the direction away from the "rare" outcome.
func guardPrediction(op ir.Op, c int64) (ir.Prediction, bool) {
	switch op {
	case ir.OpEqI, ir.OpEqF:
		return ir.PredNotTaken, true
	case ir.OpNeI, ir.OpNeF:
		return ir.PredTaken, true
	case ir.OpLtI, ir.OpLeI:
		// v < c: a sign test (c == 0) predicts non-negative; a bounds
		// check (c > 0) predicts in-bounds, i.e. taken.
		if c <= 0 {
			return ir.PredNotTaken, true
		}
		return ir.PredTaken, true
	case ir.OpGtI, ir.OpGeI:
		if c <= 0 {
			return ir.PredTaken, true
		}
		return ir.PredNotTaken, true
	}
	return ir.PredNone, false
}
