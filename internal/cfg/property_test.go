package cfg_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/progen"
	"repro/internal/ssa"
)

// TestDominatorPropertiesOnRandomPrograms checks classical dominator-tree
// invariants over the CFGs of randomly generated programs:
//
//   - the entry dominates every reachable block;
//   - idom(b) strictly dominates b and is one of b's dominators computed
//     by the naive iterative set algorithm;
//   - every back edge's target dominates its source (consistency of
//     IsBackEdge with Dominates);
//   - natural loops contain their headers and all their back-edge sources.
func TestDominatorPropertiesOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		prog, err := lang.Compile(progen.Generate(seed, progen.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range prog.Funcs {
			g := cfg.Build(f)
			ref := naiveDominators(f)
			for _, b := range g.RPO {
				if !g.Dominates(f.Entry, b) {
					t.Fatalf("seed %d %s: entry does not dominate %v", seed, f.Name, b)
				}
				id := g.Idom(b)
				if b == f.Entry {
					if id != nil {
						t.Fatalf("seed %d: entry has idom", seed)
					}
					continue
				}
				if id == nil {
					t.Fatalf("seed %d %s: reachable %v lacks idom", seed, f.Name, b)
				}
				if !ref[b][id] {
					t.Fatalf("seed %d %s: idom(%v)=%v is not a dominator", seed, f.Name, b, id)
				}
				// Cross-check Dominates against the naive sets for every
				// candidate dominator.
				for _, d := range g.RPO {
					if g.Dominates(d, b) != ref[b][d] {
						t.Fatalf("seed %d %s: Dominates(%v,%v) mismatch", seed, f.Name, d, b)
					}
				}
			}
			lf := cfg.FindLoops(g)
			for _, l := range lf.Loops {
				if !l.Contains(l.Header) {
					t.Fatalf("seed %d: loop misses its header", seed)
				}
				for _, b := range l.Blocks {
					if !g.Dominates(l.Header, b) {
						t.Fatalf("seed %d: header does not dominate member %v", seed, b)
					}
				}
			}
		}
	}
}

// FuzzDominators checks the shared dominator core through both of its
// callers — cfg.Graph and ssa.Build — against the naive set-based oracle on
// generated programs: Graph.Dominates must agree with the dominator sets on
// every pair of blocks, and each SSA block's Idom chain must list exactly
// its origin's dominators, with Kids holding exactly the blocks it
// immediately dominates, in reverse postorder.
func FuzzDominators(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		prog, err := lang.Compile(progen.Generate(seed, progen.DefaultConfig()))
		if err != nil {
			t.Skip()
		}
		sp, err := ssa.Build(prog)
		if err != nil {
			t.Fatalf("seed %d: ssa.Build: %v", seed, err)
		}
		for fi, fn := range prog.Funcs {
			g := cfg.Build(fn)
			ref := naiveDominators(fn)
			for _, b := range fn.Blocks {
				if g.Reachable(b) != (ref[b] != nil) {
					t.Fatalf("seed %d %s: Reachable(%v) = %v", seed, fn.Name, b, g.Reachable(b))
				}
				for _, d := range fn.Blocks {
					if g.Dominates(d, b) != ref[b][d] {
						t.Fatalf("seed %d %s: Dominates(%v, %v) = %v", seed, fn.Name, d, b, g.Dominates(d, b))
					}
				}
			}
			sf := sp.Funcs[fi]
			if err := ssa.Verify(sf); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if len(sf.Blocks) != len(g.RPO) {
				t.Fatalf("seed %d %s: ssa has %d blocks, %d reachable", seed, fn.Name, len(sf.Blocks), len(g.RPO))
			}
			for _, b := range sf.Blocks {
				doms := map[*ir.Block]bool{}
				for d := b; d != nil; d = d.Idom {
					doms[d.Orig] = true
				}
				want := ref[b.Orig]
				for d := range want {
					if !doms[d] {
						t.Fatalf("seed %d %s: ssa Idom chain of %v misses dominator %v", seed, fn.Name, b, d)
					}
				}
				if len(doms) != len(want) {
					t.Fatalf("seed %d %s: ssa Idom chain of %v has %d blocks, want %d", seed, fn.Name, b, len(doms), len(want))
				}
				var kids []*ssa.Block
				for _, k := range sf.Blocks {
					if k.Idom == b {
						kids = append(kids, k)
					}
				}
				if len(kids) != len(b.Kids) {
					t.Fatalf("seed %d %s: %v has %d kids, want %d", seed, fn.Name, b, len(b.Kids), len(kids))
				}
				last := -1
				for _, k := range b.Kids {
					if k.Idom != b {
						t.Fatalf("seed %d %s: kid %v of %v has idom %v", seed, fn.Name, k, b, k.Idom)
					}
					i, _ := g.RPOIndex(k.Orig)
					if i <= last {
						t.Fatalf("seed %d %s: kids of %v not in reverse postorder", seed, fn.Name, b)
					}
					last = i
				}
			}
		}
	})
}

// naiveDominators computes dominator sets with the O(n^2) iterative
// data-flow algorithm, as the reference for the CHK implementation. Only
// reachable blocks have a set.
func naiveDominators(f *ir.Func) map[*ir.Block]map[*ir.Block]bool {
	// Reachable blocks.
	reach := map[*ir.Block]bool{f.Entry: true}
	stack := []*ir.Block{f.Entry}
	var succs []*ir.Block
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		succs = b.Succs(succs[:0])
		for _, s := range succs {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	preds := map[*ir.Block][]*ir.Block{}
	for b := range reach {
		succs = b.Succs(succs[:0])
		for _, s := range succs {
			preds[s] = append(preds[s], b)
		}
	}
	dom := map[*ir.Block]map[*ir.Block]bool{}
	for b := range reach {
		dom[b] = map[*ir.Block]bool{}
		if b == f.Entry {
			dom[b][b] = true
			continue
		}
		for d := range reach {
			dom[b][d] = true
		}
	}
	changed := true
	for changed {
		changed = false
		for b := range reach {
			if b == f.Entry {
				continue
			}
			newSet := map[*ir.Block]bool{}
			first := true
			for _, p := range preds[b] {
				if !reach[p] {
					continue
				}
				if first {
					for d := range dom[p] {
						if dom[p][d] {
							newSet[d] = true
						}
					}
					first = false
				} else {
					for d := range newSet {
						if !dom[p][d] {
							delete(newSet, d)
						}
					}
				}
			}
			newSet[b] = true
			if len(newSet) != countTrue(dom[b]) {
				dom[b] = newSet
				changed = true
			} else {
				same := true
				for d := range newSet {
					if !dom[b][d] {
						same = false
						break
					}
				}
				if !same {
					dom[b] = newSet
					changed = true
				}
			}
		}
	}
	return dom
}

func countTrue(m map[*ir.Block]bool) int {
	n := 0
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}
