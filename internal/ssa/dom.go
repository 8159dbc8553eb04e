package ssa

// Dominator tree and dominance frontiers. The tree itself comes from
// cfg.Dominators, the one Cooper–Harvey–Kennedy routine in the repository,
// run over the SSA blocks' dense IDs.

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// dominatorTree fills Idom and Kids for every block reachable from the
// entry and returns those blocks in reverse postorder (entry first).
func dominatorTree(f *Func) []*Block {
	rpo, idom := cfg.Dominators(len(f.Blocks), f.Entry.ID, func(v int, buf []int) []int {
		for _, s := range f.Blocks[v].succs() {
			buf = append(buf, s.ID)
		}
		return buf
	})
	order := make([]*Block, len(rpo))
	for i, v := range rpo {
		b := f.Blocks[v]
		order[i], b.Idom, b.Kids = b, nil, nil
		if idom[v] >= 0 {
			b.Idom = f.Blocks[idom[v]]
		}
	}
	// Children in RPO keeps the renaming walk deterministic.
	for _, b := range order {
		if b.Idom != nil {
			b.Idom.Kids = append(b.Idom.Kids, b)
		}
	}
	return order
}

// succs returns the successor blocks in deterministic edge order:
// Then-before-Else for branches, Targets-then-Else for switches. The order
// matches the Preds wiring in Build, so phi argument i flows over edge i.
func (b *Block) succs() []*Block {
	switch b.Term.Op {
	case ir.TermJmp:
		return []*Block{b.Term.Then}
	case ir.TermBr:
		return []*Block{b.Term.Then, b.Term.Else}
	case ir.TermSwitch:
		out := make([]*Block, 0, len(b.Term.Targets)+1)
		out = append(out, b.Term.Targets...)
		return append(out, b.Term.Else)
	}
	return nil
}

// computeFrontiers fills each block's dominance frontier (b.df).
func computeFrontiers(order []*Block) {
	for _, b := range order {
		b.df = nil
	}
	for _, b := range order {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			for runner := p; runner != b.Idom; runner = runner.Idom {
				if hasFrontier(runner, b) {
					// An earlier walk already climbed from here.
					break
				}
				runner.df = append(runner.df, b)
			}
		}
	}
}

func hasFrontier(b, x *Block) bool {
	for _, d := range b.df {
		if d == x {
			return true
		}
	}
	return false
}
