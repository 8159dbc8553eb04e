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
	var succs []*Block
	rpo, idom := cfg.Dominators(len(f.Blocks), f.Entry.ID, func(v int, buf []int) []int {
		succs = f.Blocks[v].appendSuccs(succs[:0])
		for _, s := range succs {
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

// appendSuccs appends the successor blocks to dst in deterministic edge
// order: Then-before-Else for branches, Targets-then-Else for switches. The
// order matches the Preds wiring in Build, so edge k enters successor k as
// its predecessor PredIdx[k].
func (b *Block) appendSuccs(dst []*Block) []*Block {
	switch b.Term.Op {
	case ir.TermJmp:
		return append(dst, b.Term.Then)
	case ir.TermBr:
		return append(dst, b.Term.Then, b.Term.Else)
	case ir.TermSwitch:
		dst = append(dst, b.Term.Targets...)
		return append(dst, b.Term.Else)
	}
	return dst
}

// computeFrontiers fills each block's dominance frontier (b.df). Blocks
// are joined in order and every append made while joining b appends b, so
// b is already in runner.df exactly when it is runner.df's last entry.
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
				if n := len(runner.df); n > 0 && runner.df[n-1] == b {
					// An earlier walk already climbed from here.
					break
				}
				runner.df = append(runner.df, b)
			}
		}
	}
}
