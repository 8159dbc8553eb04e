package analysis

import (
	"repro/internal/ir"
)

// CFGLint flags suspicious control-flow shapes: unreachable blocks that are
// not marked dead, side-effect-free infinite self-loops, conditional
// branches with identical arms (an Error, matching ir.Validate's rejection
// of the degenerate shape — ssa.Build folds it to a jump rather than let it
// reach SCCP), and back edges annotated as predicted against their loop.
// The back-edge finding is advisory (Warning): state-machine replication
// legitimately predicts against a back edge in exit-biased states, which is
// exactly why this pass is not part of the Apply-time verification set.
type CFGLint struct{}

// Name implements Pass.
func (CFGLint) Name() string { return "cfglint" }

// Run implements Pass.
func (CFGLint) Run(c *Context) {
	for _, f := range c.Prog.Funcs {
		g := c.Graph(f)
		for _, b := range f.Blocks {
			if !g.Reachable(b) {
				if !b.Dead {
					c.Errorf(BlockPos(f, b), "unreachable from entry and not marked dead")
				}
				continue
			}
			switch b.Term.Op {
			case ir.TermJmp:
				if b.Term.Then == b && !hasSideEffects(b) {
					c.Warnf(BlockPos(f, b), "infinite self-loop with no side effects")
				}
			case ir.TermBr:
				if b.Term.Then == b.Term.Else {
					c.Errorf(BlockPos(f, b), "conditional branch with identical arms")
					if b.Term.Then == b && !hasSideEffects(b) {
						c.Warnf(BlockPos(f, b), "infinite self-loop with no side effects")
					}
				}
				checkBackEdgePred(c, f, b)
			}
		}
	}
}

// checkBackEdgePred warns when a branch's static prediction points away
// from its back edge: loop-closing branches are overwhelmingly taken, so a
// contrary annotation usually means a profile/transform mismatch (it is
// legitimate in exit-biased machine states, hence a Warning).
func checkBackEdgePred(c *Context, f *ir.Func, b *ir.Block) {
	if b.Term.Pred == ir.PredNone {
		return
	}
	g := c.Graph(f)
	if g.IsBackEdge(b, b.Term.Then) && b.Term.Pred == ir.PredNotTaken {
		c.Warnf(BlockPos(f, b), "back edge to %s predicted not-taken", b.Term.Then)
	}
	if g.IsBackEdge(b, b.Term.Else) && b.Term.Pred == ir.PredTaken {
		c.Warnf(BlockPos(f, b), "back edge to %s predicted taken (away from the fall-through back edge)", b.Term.Else)
	}
}

// hasSideEffects reports whether executing the block can be observed: calls
// (which may print, write globals, or diverge themselves), global stores,
// and checksum output count.
func hasSideEffects(b *ir.Block) bool {
	for i := range b.Instrs {
		switch b.Instrs[i].Op {
		case ir.OpCall, ir.OpStoreG, ir.OpStoreElem, ir.OpPrint:
			return true
		}
	}
	return false
}
