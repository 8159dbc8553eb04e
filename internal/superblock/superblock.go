// Package superblock implements profile-guided trace formation — the
// compiler consumer the paper builds its prediction for (§1: code motion
// and speculative execution; §6: the global instruction scheduler). Traces
// are grown along mutually-most-likely edges; the dynamic trace length (how
// many instructions execute between trace exits) measures how much
// straight-line scope a scheduler would get. Replication lengthens traces
// because each replicated branch copy is strongly biased.
package superblock

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/trace"
)

// Trace is one formed instruction trace: a block sequence intended to be
// scheduled as a unit.
type Trace struct {
	Blocks []*ir.Block
}

// Formation is the per-function result.
type Formation struct {
	Func   *ir.Func
	Traces []Trace
	// next[b] is b's on-trace successor (nil at trace tails).
	next map[*ir.Block]*ir.Block
}

// edgeWeights mirrors layout's derivation: Jmp edge weight = block count;
// Br taken from the branch profile; fall-through = remainder.
func edgeWeight(b *ir.Block, taken bool, blockCounts []uint64, counts *trace.Counts) uint64 {
	switch b.Term.Op {
	case ir.TermJmp:
		if taken {
			return blockCounts[b.ID]
		}
		return 0
	case ir.TermBr:
		tk := counts.Taken[b.Term.Site]
		exec := blockCounts[b.ID]
		if taken {
			return tk
		}
		if exec > tk {
			return exec - tk
		}
		return 0
	}
	return 0
}

// likelySucc returns b's most likely successor and that edge's weight.
func likelySucc(b *ir.Block, blockCounts []uint64, counts *trace.Counts) (*ir.Block, uint64) {
	switch b.Term.Op {
	case ir.TermJmp:
		return b.Term.Then, blockCounts[b.ID]
	case ir.TermBr:
		wt := edgeWeight(b, true, blockCounts, counts)
		wf := edgeWeight(b, false, blockCounts, counts)
		if wt >= wf {
			return b.Term.Then, wt
		}
		return b.Term.Else, wf
	}
	return nil, 0
}

// Form grows traces with the classic mutual-most-likely rule: starting from
// the hottest unplaced block, extend forward while the likely successor is
// unplaced and this block is also the successor's likely predecessor.
func Form(f *ir.Func, blockCounts []uint64, counts *trace.Counts) *Formation {
	// Likely predecessor per block: the incoming edge with the highest
	// weight.
	likelyPred := make(map[*ir.Block]*ir.Block, len(f.Blocks))
	bestIn := make(map[*ir.Block]uint64, len(f.Blocks))
	consider := func(from, to *ir.Block, w uint64) {
		if w > bestIn[to] || (likelyPred[to] == nil && w > 0) {
			if w >= bestIn[to] {
				bestIn[to] = w
				likelyPred[to] = from
			}
		}
	}
	for _, b := range f.Blocks {
		switch b.Term.Op {
		case ir.TermJmp:
			consider(b, b.Term.Then, edgeWeight(b, true, blockCounts, counts))
		case ir.TermBr:
			consider(b, b.Term.Then, edgeWeight(b, true, blockCounts, counts))
			consider(b, b.Term.Else, edgeWeight(b, false, blockCounts, counts))
		}
	}

	order := make([]*ir.Block, len(f.Blocks))
	copy(order, f.Blocks)
	sort.SliceStable(order, func(i, j int) bool {
		ci, cj := blockCounts[order[i].ID], blockCounts[order[j].ID]
		if ci != cj {
			return ci > cj
		}
		return order[i].ID < order[j].ID
	})

	fm := &Formation{Func: f, next: make(map[*ir.Block]*ir.Block)}
	placed := make(map[*ir.Block]bool, len(f.Blocks))
	for _, seed := range order {
		if placed[seed] {
			continue
		}
		tr := Trace{Blocks: []*ir.Block{seed}}
		placed[seed] = true
		cur := seed
		for {
			succ, w := likelySucc(cur, blockCounts, counts)
			if succ == nil || w == 0 || placed[succ] {
				break
			}
			if likelyPred[succ] != cur {
				break // side entrance would dominate; stop the trace
			}
			fm.next[cur] = succ
			tr.Blocks = append(tr.Blocks, succ)
			placed[succ] = true
			cur = succ
		}
		fm.Traces = append(fm.Traces, tr)
	}
	return fm
}

// Stats measures a formation dynamically.
type Stats struct {
	// Instrs is the number of executed instructions (terminators count 1).
	Instrs uint64
	// Exits counts executed control transfers that leave the current
	// trace (the scheduling-scope boundaries).
	Exits uint64
	// Traces and Blocks describe the static formation.
	Traces, Blocks int
}

// AvgDynamicLength is the average number of instructions executed between
// trace exits — the effective straight-line scope a scheduler gets.
func (s Stats) AvgDynamicLength() float64 {
	if s.Exits == 0 {
		return float64(s.Instrs)
	}
	return float64(s.Instrs) / float64(s.Exits)
}

// Measure evaluates one function's formation against the profile.
func Measure(fm *Formation, blockCounts []uint64, counts *trace.Counts) Stats {
	st := Stats{Traces: len(fm.Traces), Blocks: len(fm.Func.Blocks)}
	for _, b := range fm.Func.Blocks {
		exec := blockCounts[b.ID]
		st.Instrs += exec * uint64(len(b.Instrs)+1)
		onTrace := fm.next[b]
		switch b.Term.Op {
		case ir.TermJmp:
			if b.Term.Then != onTrace {
				st.Exits += exec
			}
		case ir.TermBr:
			wt := edgeWeight(b, true, blockCounts, counts)
			wf := edgeWeight(b, false, blockCounts, counts)
			if b.Term.Then != onTrace {
				st.Exits += wt
			}
			if b.Term.Else != onTrace {
				st.Exits += wf
			}
		case ir.TermRet:
			st.Exits += exec
		}
	}
	return st
}

// MeasureProgram forms traces for every function and sums the statistics.
func MeasureProgram(prog *ir.Program, blockCounts [][]uint64, counts *trace.Counts) Stats {
	var total Stats
	for _, f := range prog.Funcs {
		fm := Form(f, blockCounts[f.ID], counts)
		st := Measure(fm, blockCounts[f.ID], counts)
		total.Instrs += st.Instrs
		total.Exits += st.Exits
		total.Traces += st.Traces
		total.Blocks += st.Blocks
	}
	return total
}
