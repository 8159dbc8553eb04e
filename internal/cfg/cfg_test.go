package cfg

import (
	"testing"

	"repro/internal/ir"
)

// mkFunc builds a function skeleton with n blocks and lets the caller wire
// terminators via the edges map (block index → successor indices: one entry
// means jmp, two means br on a dummy condition, zero means ret).
func mkFunc(t *testing.T, n int, edges map[int][]int) *ir.Func {
	t.Helper()
	p := ir.NewProgram()
	f := &ir.Func{Name: "g", NRegs: 1, RetType: ir.TVoid}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		f.NewBlock("")
	}
	f.Entry = f.Blocks[0]
	for i, b := range f.Blocks {
		succ := edges[i]
		switch len(succ) {
		case 0:
			b.Term = ir.Term{Op: ir.TermRet}
		case 1:
			b.Term = ir.Term{Op: ir.TermJmp, Then: f.Blocks[succ[0]]}
		case 2:
			b.Term = ir.Term{Op: ir.TermBr, Cond: 0, Then: f.Blocks[succ[0]], Else: f.Blocks[succ[1]], Site: -1, Orig: -1}
		default:
			t.Fatalf("block %d: too many successors", i)
		}
	}
	ir.MarkUnreachableDead(f)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return f
}

// Diamond: 0 -> {1,2} -> 3
func TestDominatorsDiamond(t *testing.T) {
	f := mkFunc(t, 4, map[int][]int{0: {1, 2}, 1: {3}, 2: {3}})
	g := Build(f)
	if g.Idom(f.Blocks[1]) != f.Blocks[0] || g.Idom(f.Blocks[2]) != f.Blocks[0] {
		t.Fatal("arms should be dominated by entry")
	}
	if g.Idom(f.Blocks[3]) != f.Blocks[0] {
		t.Fatalf("join idom = %v, want entry", g.Idom(f.Blocks[3]))
	}
	if g.Idom(f.Blocks[0]) != nil {
		t.Fatal("entry must have no idom")
	}
	if !g.Dominates(f.Blocks[0], f.Blocks[3]) {
		t.Fatal("entry must dominate join")
	}
	if g.Dominates(f.Blocks[1], f.Blocks[3]) {
		t.Fatal("arm must not dominate join")
	}
	if !g.Dominates(f.Blocks[3], f.Blocks[3]) {
		t.Fatal("dominance must be reflexive")
	}
}

// Simple while loop: 0 -> 1(head) -> {2(body), 3(exit)}; 2 -> 1
func TestSimpleLoop(t *testing.T) {
	f := mkFunc(t, 4, map[int][]int{0: {1}, 1: {2, 3}, 2: {1}})
	g := Build(f)
	if !g.IsBackEdge(f.Blocks[2], f.Blocks[1]) {
		t.Fatal("2->1 should be a back edge")
	}
	if g.IsBackEdge(f.Blocks[1], f.Blocks[2]) {
		t.Fatal("1->2 should not be a back edge")
	}
	lf := FindLoops(g)
	if len(lf.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(lf.Loops))
	}
	l := lf.Loops[0]
	if l.Header != f.Blocks[1] {
		t.Fatalf("header = %v", l.Header)
	}
	if len(l.Blocks) != 2 || !l.Contains(f.Blocks[1]) || !l.Contains(f.Blocks[2]) {
		t.Fatalf("loop blocks = %v", l.Blocks)
	}
	if l.Depth != 1 || l.Parent != nil {
		t.Fatalf("depth/parent wrong: %+v", l)
	}
	if lf.InnermostLoop(f.Blocks[2]) != l {
		t.Fatal("innermost map wrong")
	}
	if lf.InnermostLoop(f.Blocks[3]) != nil {
		t.Fatal("exit block must not be in a loop")
	}
	exits := l.Exits()
	if len(exits) != 1 || exits[0].From != f.Blocks[1] || exits[0].To != f.Blocks[3] || exits[0].Taken {
		t.Fatalf("exits = %+v", exits)
	}
}

// Nested loops:
// 0 -> 1(outer head) -> {2, 6(exit)}
// 2 -> 3(inner head) -> {4(inner body), 5}
// 4 -> 3 ; 5 -> 1
func TestNestedLoops(t *testing.T) {
	f := mkFunc(t, 7, map[int][]int{
		0: {1}, 1: {2, 6}, 2: {3}, 3: {4, 5}, 4: {3}, 5: {1},
	})
	g := Build(f)
	lf := FindLoops(g)
	if len(lf.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(lf.Loops))
	}
	outer, inner := lf.Loops[0], lf.Loops[1]
	if outer.Header != f.Blocks[1] {
		outer, inner = inner, outer
	}
	if outer.Header != f.Blocks[1] || inner.Header != f.Blocks[3] {
		t.Fatalf("headers: outer=%v inner=%v", outer.Header, inner.Header)
	}
	if inner.Parent != outer {
		t.Fatalf("inner parent = %v", inner.Parent)
	}
	if outer.Depth != 1 || inner.Depth != 2 {
		t.Fatalf("depths: %d %d", outer.Depth, inner.Depth)
	}
	if len(outer.Children) != 1 || outer.Children[0] != inner {
		t.Fatal("children wrong")
	}
	if len(inner.Blocks) != 2 {
		t.Fatalf("inner blocks = %v", inner.Blocks)
	}
	if len(outer.Blocks) != 5 {
		t.Fatalf("outer blocks = %v", outer.Blocks)
	}
	if lf.InnermostLoop(f.Blocks[4]) != inner {
		t.Fatal("block 4 should be innermost in inner loop")
	}
	if lf.InnermostLoop(f.Blocks[2]) != outer {
		t.Fatal("block 2 should be in outer loop only")
	}
	if len(lf.Roots) != 1 || lf.Roots[0] != outer {
		t.Fatal("roots wrong")
	}
}

// Two back edges sharing a header must merge into one loop:
// 0 -> 1 -> {2,3}; 2 -> 1; 3 -> {1, 4}
func TestMergedBackEdges(t *testing.T) {
	f := mkFunc(t, 5, map[int][]int{0: {1}, 1: {2, 3}, 2: {1}, 3: {1, 4}})
	g := Build(f)
	lf := FindLoops(g)
	if len(lf.Loops) != 1 {
		t.Fatalf("loops = %d, want 1 (merged)", len(lf.Loops))
	}
	l := lf.Loops[0]
	if len(l.Blocks) != 3 {
		t.Fatalf("loop blocks = %v, want {1,2,3}", l.Blocks)
	}
}

func TestUnreachableBlocksIgnored(t *testing.T) {
	f := mkFunc(t, 4, map[int][]int{0: {1}, 2: {3}, 3: {2}}) // 2,3 unreachable cycle
	g := Build(f)
	if g.Reachable(f.Blocks[2]) || g.Reachable(f.Blocks[3]) {
		t.Fatal("blocks 2,3 should be unreachable")
	}
	if len(g.RPO) != 2 {
		t.Fatalf("RPO = %v", g.RPO)
	}
	lf := FindLoops(g)
	if len(lf.Loops) != 0 {
		t.Fatalf("unreachable cycle must not form a loop, got %v", lf.Loops)
	}
	if g.Dominates(f.Blocks[0], f.Blocks[2]) {
		t.Fatal("nothing dominates an unreachable block")
	}
}

func TestRPOOrder(t *testing.T) {
	// Chain 0 -> 1 -> 2: RPO must be exactly that order.
	f := mkFunc(t, 3, map[int][]int{0: {1}, 1: {2}})
	g := Build(f)
	for i, b := range f.Blocks {
		idx, ok := g.RPOIndex(b)
		if !ok || idx != i {
			t.Fatalf("RPOIndex(%v) = %d,%v want %d", b, idx, ok, i)
		}
	}
}

func TestPredsComputed(t *testing.T) {
	f := mkFunc(t, 4, map[int][]int{0: {1, 2}, 1: {3}, 2: {3}})
	g := Build(f)
	preds := g.Preds(f.Blocks[3])
	if len(preds) != 2 {
		t.Fatalf("join preds = %v", preds)
	}
	if len(g.Preds(f.Blocks[0])) != 0 {
		t.Fatal("entry must have no preds")
	}
}

// A self-loop: 0 -> 1; 1 -> {1, 2}
func TestSelfLoop(t *testing.T) {
	f := mkFunc(t, 3, map[int][]int{0: {1}, 1: {1, 2}})
	g := Build(f)
	lf := FindLoops(g)
	if len(lf.Loops) != 1 {
		t.Fatalf("loops = %d", len(lf.Loops))
	}
	l := lf.Loops[0]
	if len(l.Blocks) != 1 || l.Header != f.Blocks[1] {
		t.Fatalf("self loop = %+v", l)
	}
	exits := l.Exits()
	if len(exits) != 1 || exits[0].To != f.Blocks[2] {
		t.Fatalf("exits = %+v", exits)
	}
}

func TestLoopNumInstrs(t *testing.T) {
	f := mkFunc(t, 3, map[int][]int{0: {1}, 1: {1, 2}})
	f.Blocks[1].Instrs = append(f.Blocks[1].Instrs, ir.Instr{Op: ir.OpNop}, ir.Instr{Op: ir.OpNop})
	g := Build(f)
	lf := FindLoops(g)
	if got := lf.Loops[0].NumInstrs(); got != 3 { // 2 nops + terminator
		t.Fatalf("NumInstrs = %d, want 3", got)
	}
}
