package cfg_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/progen"
)

// refLoop is one natural loop as the definition gives it.
type refLoop struct {
	header  *ir.Block
	members map[*ir.Block]bool
}

// naiveLoops builds f's natural loops straight from the definition, with
// the naive dominator sets: a back edge u→h has h dominating u, and h's
// loop holds h and every block that reaches one of h's back-edge sources
// without passing h, found by a forward search from each block.
func naiveLoops(f *ir.Func) []*refLoop {
	dom := naiveDominators(f)
	var succs []*ir.Block
	sources := map[*ir.Block][]*ir.Block{}
	for _, u := range f.Blocks {
		if dom[u] == nil {
			continue
		}
		succs = u.Succs(succs[:0])
		for _, h := range succs {
			if dom[u][h] {
				sources[h] = append(sources[h], u)
			}
		}
	}
	var loops []*refLoop
	for h, srcs := range sources {
		isSrc := map[*ir.Block]bool{}
		for _, s := range srcs {
			isSrc[s] = true
		}
		l := &refLoop{header: h, members: map[*ir.Block]bool{h: true}}
		for _, v := range f.Blocks {
			if v == h || dom[v] == nil {
				continue
			}
			seen := map[*ir.Block]bool{v: true}
			stack := []*ir.Block{v}
			for len(stack) > 0 && !l.members[v] {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if isSrc[b] {
					l.members[v] = true
				}
				for _, s := range b.Succs(nil) {
					if s != h && !seen[s] {
						seen[s] = true
						stack = append(stack, s)
					}
				}
			}
		}
		loops = append(loops, l)
	}
	return loops
}

// properSubset reports whether a is a proper subset of b.
func properSubset(a, b map[*ir.Block]bool) bool {
	if len(a) >= len(b) {
		return false
	}
	for x := range a {
		if !b[x] {
			return false
		}
	}
	return true
}

// checkForest compares FindLoops on f with the definition: the same loops
// in header RPO order, each with its members in block ID order; Parent the
// smallest loop properly containing it, Children in header RPO order,
// Depth one more than its parent's; and, for every block of f, Contains
// and InnermostLoop (the smallest loop containing the block).
func checkForest(t *testing.T, label string, f *ir.Func) {
	t.Helper()
	g := cfg.Build(f)
	lf := cfg.FindLoops(g)
	ref := naiveLoops(f)
	rpo := func(b *ir.Block) int {
		i, _ := g.RPOIndex(b)
		return i
	}
	slices.SortFunc(ref, func(a, b *refLoop) int { return rpo(a.header) - rpo(b.header) })
	if len(lf.Loops) != len(ref) {
		t.Fatalf("%s %s: %d loops, want %d", label, f.Name, len(lf.Loops), len(ref))
	}
	byHeader := map[*ir.Block]*cfg.Loop{}
	for i, l := range lf.Loops {
		r := ref[i]
		if l.Header != r.header {
			t.Fatalf("%s %s: loop %d header %v, want %v", label, f.Name, i, l.Header, r.header)
		}
		byHeader[l.Header] = l
		var want []*ir.Block
		for _, b := range f.Blocks {
			if r.members[b] {
				want = append(want, b)
			}
		}
		if !slices.Equal(l.Blocks, want) {
			t.Fatalf("%s %s: loop %v blocks %v, want %v", label, f.Name, l.Header, l.Blocks, want)
		}
	}
	smallest := func(ok func(*refLoop) bool) *cfg.Loop {
		var best *refLoop
		for _, r := range ref {
			if ok(r) && (best == nil || len(r.members) < len(best.members)) {
				best = r
			}
		}
		if best == nil {
			return nil
		}
		return byHeader[best.header]
	}
	var roots []*cfg.Loop
	children := map[*cfg.Loop][]*cfg.Loop{}
	for i, l := range lf.Loops {
		r := ref[i]
		parent := smallest(func(o *refLoop) bool { return properSubset(r.members, o.members) })
		if l.Parent != parent {
			t.Fatalf("%s %s: loop %v parent %v, want %v", label, f.Name, l.Header, l.Parent, parent)
		}
		depth := 1
		if parent != nil {
			depth = parent.Depth + 1
			children[parent] = append(children[parent], l)
		} else {
			roots = append(roots, l)
		}
		if l.Depth != depth {
			t.Fatalf("%s %s: loop %v depth %d, want %d", label, f.Name, l.Header, l.Depth, depth)
		}
	}
	if !slices.Equal(lf.Roots, roots) {
		t.Fatalf("%s %s: roots %v, want %v", label, f.Name, lf.Roots, roots)
	}
	for i, l := range lf.Loops {
		if !slices.Equal(l.Children, children[l]) {
			t.Fatalf("%s %s: loop %v children %v, want %v", label, f.Name, l.Header, l.Children, children[l])
		}
		for _, b := range f.Blocks {
			if l.Contains(b) != ref[i].members[b] {
				t.Fatalf("%s %s: loop %v Contains(%v) = %v", label, f.Name, l.Header, b, l.Contains(b))
			}
		}
	}
	for _, b := range f.Blocks {
		want := smallest(func(o *refLoop) bool { return o.members[b] })
		if got := lf.InnermostLoop(b); got != want {
			t.Fatalf("%s %s: innermost loop of %v is %v, want %v", label, f.Name, b, got, want)
		}
	}
	if lf.InnermostLoop(&ir.Block{ID: 0}) != nil {
		t.Fatalf("%s %s: a block of another function has an innermost loop", label, f.Name)
	}
}

// TestFindLoopsCatalog checks the loop forest of every catalog workload's
// functions against the definition.
func TestFindLoopsCatalog(t *testing.T) {
	for _, w := range bench.Workloads() {
		c, err := bench.Compile(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range c.Prog.Funcs {
			checkForest(t, w.Name, f)
		}
	}
}

// FuzzFindLoops checks the loop forests of generated programs against the
// definition (checkForest).
func FuzzFindLoops(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		prog, err := lang.Compile(progen.Generate(seed, progen.DefaultConfig()))
		if err != nil {
			t.Skip()
		}
		for _, fn := range prog.Funcs {
			checkForest(t, fmt.Sprintf("seed %d", seed), fn)
		}
	})
}

// sequentialLoops returns a main of n sequential for loops.
func sequentialLoops(t testing.TB, n int) *ir.Func {
	var sb strings.Builder
	sb.WriteString("var x int;\n\nfunc main() int {\n")
	for i := 0; i < n; i++ {
		sb.WriteString("    for var i int = 0; i < 3; i = i + 1 { x = x + i; }\n")
	}
	sb.WriteString("    return x;\n}\n")
	prog, err := lang.Compile(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return prog.Funcs[0]
}

// BenchmarkFindLoopsSequential builds the loop forest of a main of 8,000
// sequential loops: kralld builds forests of uploaded sources, so the cost
// must stay near-linear in the loop count.
func BenchmarkFindLoopsSequential(b *testing.B) {
	g := cfg.Build(sequentialLoops(b, 8_000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(cfg.FindLoops(g).Loops); got != 8_000 {
			b.Fatalf("found %d loops, want 8000", got)
		}
	}
}
