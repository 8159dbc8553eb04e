package predict

import (
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/trace"
)

// SiteFeatures captures the static properties of one branch site: the one
// per-site fact vector behind every static heuristic in the repository. It
// has two readings — the first-match chains here (BallLarus, BackwardTaken,
// OpcodeStatic, after [Smi81] and [BL93]) and the Dempster–Shafer fold of
// analysis.HeuristicSites — which consult the same facts in different
// orders. BL has no pointers, so the Ball–Larus "Pointer" heuristic has no
// applicable sites (documented substitution in DESIGN.md).
type SiteFeatures struct {
	Site int32
	// Func names the function containing the site.
	Func string

	// Switch marks a TermSwitch dispatch site. The two-way facts below
	// stay zero for switches; both readings emit no two-way prediction for
	// them, and the indirect clustering family predicts them from profiled
	// target frequencies instead.
	Switch bool

	// CmpOp is the comparison opcode that defines the branch condition in
	// the same block, or ir.OpInvalid when the condition's origin is not a
	// visible comparison.
	CmpOp ir.Op
	// CmpA and CmpB are the comparison's operand registers (valid when
	// CmpOp is set).
	CmpA, CmpB ir.Reg
	// GuardOp and GuardImm describe a comparison against a constant: when
	// exactly one operand is defined by a constant earlier in the branch
	// block, the comparison oriented as "variable GuardOp GuardImm".
	// GuardOp is ir.OpInvalid otherwise.
	GuardOp  ir.Op
	GuardImm int64

	// TakenBack/ElseBack: the edge is a back edge (its target dominates
	// the branch block).
	TakenBack, ElseBack bool
	// LoopDepth is the nesting depth of the innermost natural loop
	// containing the branch block (0 = not in a loop).
	LoopDepth int
	// TakenExits/ElseExits: the edge leaves the innermost loop containing
	// the branch.
	TakenExits, ElseExits bool
	// TakenEnters/ElseEnters: the edge enters a loop that does not contain
	// the branch (its target is that loop's header).
	TakenEnters, ElseEnters bool
	// TakenCall/ElseCall: the successor block contains a call.
	TakenCall, ElseCall bool
	// TakenRet/ElseRet: the successor block returns from the function.
	TakenRet, ElseRet bool
	// TakenStore/ElseStore: the successor block stores to a global.
	TakenStore, ElseStore bool
	// TakenUses/ElseUses: the successor block reads one of the comparison
	// operands before overwriting it.
	TakenUses, ElseUses bool
}

// Analyze extracts the features of every prediction site in the program,
// building each function's CFG and loop forest afresh. Sites must be
// numbered (branches and switches share one site space). The returned slice
// is indexed by site ID.
func Analyze(prog *ir.Program) []SiteFeatures {
	return AnalyzeWith(prog, func(f *ir.Func) (*cfg.Graph, *cfg.LoopForest) {
		g := cfg.Build(f)
		return g, cfg.FindLoops(g)
	})
}

// AnalyzeWith is Analyze over caller-supplied CFGs and loop forests, so a
// caller that already caches them (analysis.Context) does not rebuild them.
func AnalyzeWith(prog *ir.Program, graphs func(*ir.Func) (*cfg.Graph, *cfg.LoopForest)) []SiteFeatures {
	n := 0
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			t := &b.Term
			if (t.Op == ir.TermBr && !t.SwTest) || t.Op == ir.TermSwitch {
				n++
			}
		}
	}
	out := make([]SiteFeatures, n)
	for _, f := range prog.Funcs {
		g, lf := graphs(f)
		for _, b := range f.Blocks {
			if b.Term.Op == ir.TermSwitch {
				out[b.Term.Site] = SiteFeatures{Site: b.Term.Site, Func: f.Name, Switch: true}
				continue
			}
			if b.Term.Op != ir.TermBr || b.Term.SwTest {
				continue
			}
			ft := &out[b.Term.Site]
			ft.Site, ft.Func = b.Term.Site, f.Name
			condCompare(ft, b)
			then, els := b.Term.Then, b.Term.Else
			ft.TakenBack = g.IsBackEdge(b, then)
			ft.ElseBack = g.IsBackEdge(b, els)
			if l := lf.InnermostLoop(b); l != nil {
				ft.LoopDepth = l.Depth
				ft.TakenExits = !l.Contains(then)
				ft.ElseExits = !l.Contains(els)
			}
			ft.TakenEnters = entersLoop(lf, b, then)
			ft.ElseEnters = entersLoop(lf, b, els)
			ft.TakenCall = blockCalls(then)
			ft.ElseCall = blockCalls(els)
			ft.TakenRet = then.Term.Op == ir.TermRet
			ft.ElseRet = els.Term.Op == ir.TermRet
			ft.TakenStore = blockStores(then)
			ft.ElseStore = blockStores(els)
			if ft.CmpOp != ir.OpInvalid {
				ft.TakenUses = blockUses(then, ft.CmpA, ft.CmpB)
				ft.ElseUses = blockUses(els, ft.CmpA, ft.CmpB)
			}
		}
	}
	return out
}

// condCompare finds the comparison instruction defining the branch
// condition within the branch block (through mov chains) and, when exactly
// one of its operands is a constant defined earlier in the block, its guard
// shape.
func condCompare(ft *SiteFeatures, b *ir.Block) {
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
			return
		}
		ft.CmpOp, ft.CmpA, ft.CmpB = in.Op, in.A, in.B
		aImm, aConst := constBefore(b, i, in.A)
		bImm, bConst := constBefore(b, i, in.B)
		switch {
		case bConst && !aConst:
			ft.GuardOp, ft.GuardImm = in.Op, bImm
		case aConst && !bConst:
			ft.GuardOp, ft.GuardImm = swapCompare(in.Op), aImm
		}
		return
	}
}

// constBefore scans backward from instruction idx for the most recent
// definition of reg inside the block; a const definition yields its bits.
func constBefore(b *ir.Block, idx int, reg ir.Reg) (imm int64, ok bool) {
	for i := idx - 1; i >= 0; i-- {
		in := &b.Instrs[i]
		if !in.Op.HasDst() || in.Dst != reg {
			continue
		}
		if in.Op == ir.OpConstI || in.Op == ir.OpConstF {
			return in.Imm, true
		}
		return 0, false
	}
	return 0, false
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

// entersLoop reports whether the edge b→succ enters a natural loop that does
// not contain b (succ is such a loop's header).
func entersLoop(lf *cfg.LoopForest, b, succ *ir.Block) bool {
	for l := lf.InnermostLoop(succ); l != nil; l = l.Parent {
		if l.Header == succ && !l.Contains(b) {
			return true
		}
	}
	return false
}

func blockCalls(b *ir.Block) bool {
	for i := range b.Instrs {
		if b.Instrs[i].Op == ir.OpCall {
			return true
		}
	}
	return false
}

func blockStores(b *ir.Block) bool {
	for i := range b.Instrs {
		switch b.Instrs[i].Op {
		case ir.OpStoreG, ir.OpStoreElem:
			return true
		}
	}
	return false
}

// blockUses reports whether the block reads register a or b before
// overwriting both.
func blockUses(blk *ir.Block, a, b ir.Reg) bool {
	liveA, liveB := true, true
	reads := func(in *ir.Instr, r ir.Reg) bool {
		n := in.Op.NumSrc()
		if n >= 1 && in.A == r {
			return true
		}
		if n >= 2 && in.B == r {
			return true
		}
		if in.Op == ir.OpCall {
			for _, ar := range in.Args {
				if ar == r {
					return true
				}
			}
		}
		return false
	}
	for i := range blk.Instrs {
		in := &blk.Instrs[i]
		if liveA && reads(in, a) {
			return true
		}
		if liveB && reads(in, b) {
			return true
		}
		if in.Op.HasDst() {
			if in.Dst == a {
				liveA = false
			}
			if in.Dst == b {
				liveB = false
			}
			if !liveA && !liveB {
				return false
			}
		}
	}
	t := blk.Term
	if t.Op == ir.TermBr && ((liveA && t.Cond == a) || (liveB && t.Cond == b)) {
		return true
	}
	if t.Op == ir.TermRet && t.HasVal && ((liveA && t.A == a) || (liveB && t.A == b)) {
		return true
	}
	return false
}

// Static is a fixed per-site prediction vector, the output of any static or
// semi-static strategy.
type Static struct {
	Strategy string
	Preds    []ir.Prediction
}

// Score evaluates the vector against observed outcome counts: a site
// predicted taken contributes its not-taken count to the misses, and vice
// versa. Sites without a prediction default to not-taken.
func (s *Static) Score(c *trace.Counts) Result {
	r := Result{Name: s.Strategy}
	for site := range c.Taken {
		taken := site < len(s.Preds) && s.Preds[site] == ir.PredTaken
		if taken {
			r.Misses += c.NotTaken[site]
		} else {
			r.Misses += c.Taken[site]
		}
		r.Total += c.Taken[site] + c.NotTaken[site]
	}
	return r
}

// AlwaysTaken is Smith's simplest strategy.
func AlwaysTaken(nSites int) *Static {
	s := &Static{Strategy: "always taken", Preds: make([]ir.Prediction, nSites)}
	for i := range s.Preds {
		s.Preds[i] = ir.PredTaken
	}
	return s
}

// AlwaysNotTaken predicts fall-through everywhere.
func AlwaysNotTaken(nSites int) *Static {
	s := &Static{Strategy: "always not taken", Preds: make([]ir.Prediction, nSites)}
	for i := range s.Preds {
		s.Preds[i] = ir.PredNotTaken
	}
	return s
}

// BackwardTaken is the classic BTFNT heuristic adapted to an IR without a
// linear address layout: a back edge (target dominates the branch) is
// "backward" and predicted taken; a branch with exactly one loop-exit edge
// predicts the staying side, because a layout-directed compiler would have
// made the loop continuation the fall-through/backward direction; all other
// branches predict not-taken.
func BackwardTaken(features []SiteFeatures) *Static {
	s := &Static{Strategy: "backward taken", Preds: make([]ir.Prediction, len(features))}
	for i, ft := range features {
		if ft.Switch {
			continue // PredNone: two-way heuristics do not cover switches
		}
		switch {
		case ft.TakenBack && !ft.ElseBack:
			s.Preds[i] = ir.PredTaken
		case ft.ElseBack && !ft.TakenBack:
			s.Preds[i] = ir.PredNotTaken
		case ft.LoopDepth > 0 && ft.TakenExits && !ft.ElseExits:
			s.Preds[i] = ir.PredNotTaken
		case ft.LoopDepth > 0 && ft.ElseExits && !ft.TakenExits:
			s.Preds[i] = ir.PredTaken
		default:
			s.Preds[i] = ir.PredNotTaken
		}
	}
	return s
}

// OpcodePrediction is Smith's opcode heuristic adapted to BL's compare
// opcodes: equality and less-than style tests are predicted false (their
// taken side is usually the rare case: bound checks, sentinel tests),
// inequality and greater-than style tests are predicted true. The second
// return value reports applicability. It is the one opcode table shared by
// the Ball–Larus chain here and the evidence combiner in internal/analysis.
func OpcodePrediction(op ir.Op) (ir.Prediction, bool) {
	switch op {
	case ir.OpEqI, ir.OpEqF, ir.OpLtI, ir.OpLtF, ir.OpLeI, ir.OpLeF:
		return ir.PredNotTaken, true
	case ir.OpNeI, ir.OpNeF, ir.OpGtI, ir.OpGtF, ir.OpGeI, ir.OpGeF:
		return ir.PredTaken, true
	}
	return ir.PredNone, false
}

// OpcodeStatic predicts purely from the comparison opcode, falling back to
// not-taken.
func OpcodeStatic(features []SiteFeatures) *Static {
	s := &Static{Strategy: "opcode", Preds: make([]ir.Prediction, len(features))}
	for i, ft := range features {
		if ft.Switch {
			continue
		}
		if p, ok := OpcodePrediction(ft.CmpOp); ok {
			s.Preds[i] = p
		} else {
			s.Preds[i] = ir.PredNotTaken
		}
	}
	return s
}

// BallLarus implements the [BL93] heuristic scheme. As in the original
// paper, loop branches (back edges and loop exits) are covered by the loop
// heuristic first; the remaining non-loop branches take the first
// applicable heuristic in the order Krall reports as most successful —
// Pointer, Call, Opcode, Return, Store, Guard — with a not-taken fallback.
// The Pointer heuristic never applies in BL (no pointer comparisons).
func BallLarus(features []SiteFeatures) *Static {
	s := &Static{Strategy: "ball-larus", Preds: make([]ir.Prediction, len(features))}
	for i := range features {
		if features[i].Switch {
			continue
		}
		s.Preds[i] = ballLarusSite(&features[i])
	}
	return s
}

func ballLarusSite(ft *SiteFeatures) ir.Prediction {
	// Loop: predict that the loop branch is taken — prefer the back edge,
	// otherwise avoid leaving the loop. In BL93 loop branches are handled
	// before the ordered non-loop heuristics.
	if ft.TakenBack != ft.ElseBack {
		if ft.TakenBack {
			return ir.PredTaken
		}
		return ir.PredNotTaken
	}
	if ft.LoopDepth > 0 && ft.TakenExits != ft.ElseExits {
		if ft.TakenExits {
			return ir.PredNotTaken
		}
		return ir.PredTaken
	}
	// Call: avoid branches to blocks which call a subroutine.
	if ft.TakenCall != ft.ElseCall {
		if ft.TakenCall {
			return ir.PredNotTaken
		}
		return ir.PredTaken
	}
	// Opcode.
	if p, ok := OpcodePrediction(ft.CmpOp); ok {
		return p
	}
	// Return: avoid branches to blocks which return.
	if ft.TakenRet != ft.ElseRet {
		if ft.TakenRet {
			return ir.PredNotTaken
		}
		return ir.PredTaken
	}
	// Store: avoid branches to blocks which store.
	if ft.TakenStore != ft.ElseStore {
		if ft.TakenStore {
			return ir.PredNotTaken
		}
		return ir.PredTaken
	}
	// Guard: branch to a block which uses the operands of the branch.
	if ft.TakenUses != ft.ElseUses {
		if ft.TakenUses {
			return ir.PredTaken
		}
		return ir.PredNotTaken
	}
	return ir.PredNotTaken
}

// StaticHeuristic wraps a per-site prediction vector produced by the
// analysis package's static prediction engine (Dempster–Shafer combined
// Ball–Larus heuristics with SCCP-decided sites overridden). The analysis
// package cannot be imported from here (it depends on statemachine, which
// depends on this package), so callers pass the finished vector.
func StaticHeuristic(preds []ir.Prediction) *Static {
	return &Static{Strategy: "static heuristic", Preds: append([]ir.Prediction(nil), preds...)}
}
