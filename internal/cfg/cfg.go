// Package cfg provides the control-flow analyses the paper's pipeline needs:
// predecessor lists, reverse postorder, dominator trees (the Cooper–Harvey–
// Kennedy iterative algorithm), and natural-loop detection with a loop
// nesting forest, following the classical construction the paper cites
// ([ASU86], "Natural loop analysis").
package cfg

import (
	"fmt"
	"slices"

	"repro/internal/ir"
)

// Graph is the analysed view of one function's CFG. It is immutable with
// respect to the function it was built from: rebuilding after a transform is
// the caller's job. Blocks are identified by their dense ID, as ir.Validate
// requires.
type Graph struct {
	Func *ir.Func

	// RPO is the blocks reachable from the entry in reverse postorder.
	RPO []*ir.Block

	// blocks snapshots Func.Blocks: the ID→block mapping stays that of
	// build time even if the function's block list changes later.
	blocks []*ir.Block
	// rpoIndex is each block's position in RPO, -1 when unreachable; idom
	// is its immediate dominator's ID, -1 for the entry and unreachable
	// blocks. pre is a reachable block's preorder number in the dominator
	// tree and size the node count of its subtree, so the blocks it
	// dominates are exactly those numbered [pre, pre+size). All are
	// indexed by block ID.
	rpoIndex []int
	idom     []int
	pre      []int
	size     []int
	// preds lists each block's reachable predecessors, one entry per edge.
	preds [][]*ir.Block
}

// Build computes predecessors, reverse postorder, and dominators for f.
func Build(f *ir.Func) *Graph {
	n := len(f.Blocks)
	g := &Graph{Func: f, blocks: append([]*ir.Block(nil), f.Blocks...), preds: make([][]*ir.Block, n)}
	var succs []*ir.Block
	rpo, idom := Dominators(n, f.Entry.ID, func(v int, buf []int) []int {
		succs = g.blocks[v].Succs(succs[:0])
		for _, s := range succs {
			if i := g.index(s); i >= 0 {
				buf = append(buf, i)
				g.preds[i] = append(g.preds[i], g.blocks[v])
			}
		}
		return buf
	})
	g.idom = idom
	g.RPO = make([]*ir.Block, len(rpo))
	g.rpoIndex = make([]int, n)
	for i := range g.rpoIndex {
		g.rpoIndex[i] = -1
	}
	for i, v := range rpo {
		g.RPO[i] = g.blocks[v]
		g.rpoIndex[v] = i
	}
	g.numberDomTree(rpo)
	return g
}

// numberDomTree gives the dominator tree preorder intervals, so Dominates
// is one interval test: the analyses ask it once per branch edge, and a
// walk up the idom chain would make them quadratic in a function's branch
// count. An immediate dominator precedes its node in RPO, so a backward
// sweep totals the subtree sizes and a forward sweep hands each child the
// next free range of its parent's interval. Neither recurses, since the
// tree of a long chain of ifs is as deep as the chain is long.
func (g *Graph) numberDomTree(rpo []int) {
	g.pre = make([]int, len(g.blocks))
	g.size = make([]int, len(g.blocks))
	for k := len(rpo) - 1; k >= 0; k-- {
		v := rpo[k]
		g.size[v]++
		if d := g.idom[v]; d >= 0 {
			g.size[d] += g.size[v]
		}
	}
	// next[v] is the first preorder number not yet given out in v's
	// subtree.
	next := make([]int, len(g.blocks))
	for _, v := range rpo {
		if d := g.idom[v]; d >= 0 {
			g.pre[v] = next[d]
			next[d] += g.size[v]
		}
		next[v] = g.pre[v] + 1
	}
}

// index returns b's ID when b is one of the graph's blocks, else -1.
func (g *Graph) index(b *ir.Block) int { return blockIndex(g.blocks, b) }

// blockIndex returns b's ID when b is one of blocks, else -1.
func blockIndex(blocks []*ir.Block, b *ir.Block) int {
	if b != nil && b.ID >= 0 && b.ID < len(blocks) && blocks[b.ID] == b {
		return b.ID
	}
	return -1
}

// Dominators computes the reverse postorder and immediate dominators of a
// graph over the dense node indices 0..n-1 with the Cooper–Harvey–Kennedy
// iterative algorithm: a fixpoint over the reverse postorder that
// intersects dominator paths. It is the one dominator routine behind both
// Graph and the SSA builder. succs appends node v's successors to buf in
// edge order and returns it; it is called once per reachable node, and the
// depth-first search visits successors in that order. rpo lists the nodes
// reachable from entry, entry first; idom[v] is v's immediate dominator,
// -1 for the entry and unreachable nodes.
func Dominators(n, entry int, succs func(v int, buf []int) []int) (rpo, idom []int) {
	// Iterative depth-first search. num is -1 until a node is reached,
	// then its reverse-postorder number.
	num := make([]int, n)
	for i := range num {
		num[i] = -1
	}
	preds := make([][]int, n)
	type frame struct{ v, next, end int }
	var edges []int
	var stack []frame
	push := func(v int) {
		num[v] = 0
		lo := len(edges)
		edges = succs(v, edges)
		for _, s := range edges[lo:] {
			preds[s] = append(preds[s], v)
		}
		stack = append(stack, frame{v, lo, len(edges)})
	}
	for push(entry); len(stack) > 0; {
		top := &stack[len(stack)-1]
		if top.next == top.end {
			rpo = append(rpo, top.v)
			stack = stack[:len(stack)-1]
			continue
		}
		s := edges[top.next]
		top.next++
		if num[s] < 0 {
			push(s)
		}
	}
	slices.Reverse(rpo)
	for i, v := range rpo {
		num[v] = i
	}

	// The fixpoint, over RPO numbers: doms[i] is the RPO number of i's
	// immediate dominator, -1 while unknown. An immediate dominator
	// precedes its node in RPO, so intersecting walks toward 0.
	doms := make([]int, len(rpo))
	for i := range doms {
		doms[i] = -1
	}
	doms[0] = 0
	for changed := true; changed; {
		changed = false
		for i := 1; i < len(rpo); i++ {
			d := -1
			for _, p := range preds[rpo[i]] {
				p = num[p]
				if doms[p] < 0 {
					continue // not yet processed this sweep
				}
				for d >= 0 && p != d {
					for p > d {
						p = doms[p]
					}
					for d > p {
						d = doms[d]
					}
				}
				d = p
			}
			if doms[i] != d {
				doms[i] = d
				changed = true
			}
		}
	}
	idom = make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	for i := 1; i < len(rpo); i++ {
		idom[rpo[i]] = rpo[doms[i]]
	}
	return rpo, idom
}

// Idom returns the immediate dominator of b, or nil for the entry block and
// unreachable blocks.
func (g *Graph) Idom(b *ir.Block) *ir.Block {
	if i := g.index(b); i >= 0 && g.idom[i] >= 0 {
		return g.blocks[g.idom[i]]
	}
	return nil
}

// Preds returns b's reachable predecessors, one entry per edge.
func (g *Graph) Preds(b *ir.Block) []*ir.Block {
	if i := g.index(b); i >= 0 {
		return g.preds[i]
	}
	return nil
}

// Dominates reports whether a dominates b (reflexively).
func (g *Graph) Dominates(a, b *ir.Block) bool {
	i, j := g.index(a), g.index(b)
	if i < 0 || j < 0 || g.rpoIndex[i] < 0 || g.rpoIndex[j] < 0 {
		return false
	}
	return g.pre[i] <= g.pre[j] && g.pre[j] < g.pre[i]+g.size[i]
}

// Reachable reports whether b is reachable from the entry.
func (g *Graph) Reachable(b *ir.Block) bool {
	_, ok := g.RPOIndex(b)
	return ok
}

// RPOIndex returns b's reverse-postorder index; blocks earlier in RPO come
// first on any path from the entry in a reducible region.
func (g *Graph) RPOIndex(b *ir.Block) (int, bool) {
	if i := g.index(b); i >= 0 && g.rpoIndex[i] >= 0 {
		return g.rpoIndex[i], true
	}
	return 0, false
}

// IsBackEdge reports whether the edge from→to is a back edge, i.e. its
// target dominates its source. Natural loops are grown from back edges.
func (g *Graph) IsBackEdge(from, to *ir.Block) bool {
	return g.Reachable(from) && g.Dominates(to, from)
}

// String renders a compact summary for diagnostics.
func (g *Graph) String() string {
	s := fmt.Sprintf("cfg %s: %d reachable blocks\n", g.Func.Name, len(g.RPO))
	for _, b := range g.RPO {
		s += fmt.Sprintf("  %s idom=%v preds=%v\n", b, g.Idom(b), g.Preds(b))
	}
	return s
}

// Loop is one natural loop: a header plus the set of blocks that can reach a
// back edge into the header without leaving the loop.
type Loop struct {
	Header *ir.Block
	// Blocks contains every block of the loop, header included, in
	// deterministic (block ID) order.
	Blocks []*ir.Block
	// Parent is the innermost enclosing loop, or nil.
	Parent *Loop
	// Children are the loops directly nested inside this one.
	Children []*Loop
	// Depth is 1 for outermost loops.
	Depth int

	forest *LoopForest
	// pre is the loop's preorder number in the loop forest and size the
	// number of loops in its subtree, itself included: the loops nested in
	// it are exactly those numbered [pre, pre+size).
	pre, size int
}

// Contains reports whether b belongs to the loop: whether b's innermost
// loop is this loop or one nested in it.
func (l *Loop) Contains(b *ir.Block) bool {
	in := l.forest.InnermostLoop(b)
	return in != nil && l.pre <= in.pre && in.pre < l.pre+l.size
}

// NumInstrs is the loop body size in IR instructions (terminators count 1).
func (l *Loop) NumInstrs() int {
	n := 0
	for _, b := range l.Blocks {
		n += len(b.Instrs) + 1
	}
	return n
}

func (l *Loop) String() string {
	return fmt.Sprintf("loop(header=%s blocks=%d depth=%d)", l.Header, len(l.Blocks), l.Depth)
}

// LoopForest is the set of natural loops of one function, with the
// containment hierarchy resolved.
type LoopForest struct {
	// Loops holds every loop, outermost-first within each tree,
	// deterministically ordered by header RPO index.
	Loops []*Loop
	// Roots are the outermost loops.
	Roots []*Loop

	// blocks is the graph's ID→block snapshot, and innermost each block's
	// innermost loop (nil outside every loop), indexed by block ID.
	blocks    []*ir.Block
	innermost []*Loop
}

// InnermostLoop returns the innermost loop containing b, or nil.
func (lf *LoopForest) InnermostLoop(b *ir.Block) *Loop {
	if i := blockIndex(lf.blocks, b); i >= 0 {
		return lf.innermost[i]
	}
	return nil
}

// FindLoops detects all natural loops of g. Back edges sharing a header are
// merged into a single loop, as in the classical construction.
//
// Two natural loops with different headers are disjoint or nested, and the
// outer header strictly dominates the inner one, so it comes first in RPO.
// Growing the loops in reverse header RPO therefore reaches each block
// first from its innermost loop, and each header first, after its own
// loop, from its parent. One visit stamp shared by all loops keeps the cost
// at the sum of the loop sizes (and their in-edges), with no per-loop set.
func FindLoops(g *Graph) *LoopForest {
	n := len(g.blocks)
	lf := &LoopForest{blocks: g.blocks, innermost: make([]*Loop, n)}
	// tails lists each header's back-edge sources, by header ID; the loops
	// go in header RPO order.
	tails := make([][]*ir.Block, n)
	var succs []*ir.Block
	for _, b := range g.RPO {
		succs = b.Succs(succs[:0])
		for _, s := range succs {
			if g.IsBackEdge(b, s) {
				tails[s.ID] = append(tails[s.ID], b)
			}
		}
	}
	loopAt := make([]*Loop, n)
	for _, b := range g.RPO {
		if tails[b.ID] != nil {
			loopAt[b.ID] = &Loop{Header: b, forest: lf}
			lf.Loops = append(lf.Loops, loopAt[b.ID])
		}
	}
	// Grow each loop backwards from its back-edge sources, innermost
	// first. stamp[v] is 1 + the index of the last loop that reached v.
	stamp := make([]int32, n)
	var stack []*ir.Block
	for i := len(lf.Loops) - 1; i >= 0; i-- {
		l, mark := lf.Loops[i], int32(i+1)
		add := func(v *ir.Block) {
			stamp[v.ID] = mark
			l.Blocks = append(l.Blocks, v)
			if lf.innermost[v.ID] == nil {
				lf.innermost[v.ID] = l
			} else if q := loopAt[v.ID]; q != nil && q != l && q.Parent == nil {
				q.Parent = l
			}
		}
		add(l.Header)
		for _, src := range tails[l.Header.ID] {
			if stamp[src.ID] != mark {
				add(src)
				stack = append(stack, src)
			}
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range g.preds[b.ID] {
				if stamp[p.ID] != mark {
					add(p)
					stack = append(stack, p)
				}
			}
		}
		slices.SortFunc(l.Blocks, func(a, b *ir.Block) int { return a.ID - b.ID })
	}
	// A parent's header precedes its children's in RPO, so one forward
	// pass links children and depths and one backward pass totals the
	// subtree sizes; the preorder numbers then hand each child the next
	// free range of its parent's, as numberDomTree does for dominators.
	for _, l := range lf.Loops {
		if p := l.Parent; p != nil {
			l.Depth = p.Depth + 1
			p.Children = append(p.Children, l)
		} else {
			l.Depth = 1
			lf.Roots = append(lf.Roots, l)
		}
	}
	for i := len(lf.Loops) - 1; i >= 0; i-- {
		l := lf.Loops[i]
		l.size++
		if l.Parent != nil {
			l.Parent.size += l.size
		}
	}
	next := 0
	for _, r := range lf.Roots {
		r.pre = next
		next += r.size
	}
	for _, l := range lf.Loops {
		next := l.pre + 1
		for _, c := range l.Children {
			c.pre = next
			next += c.size
		}
	}
	return lf
}

// ExitEdge is an edge leaving a loop: From is inside, To is outside.
type ExitEdge struct {
	From, To *ir.Block
	// Taken reports whether the exit is the taken side of From's branch
	// (false for fall-through or unconditional exits).
	Taken bool
}

// Exits returns the loop's exit edges in deterministic order.
func (l *Loop) Exits() []ExitEdge {
	var out []ExitEdge
	for _, b := range l.Blocks {
		switch b.Term.Op {
		case ir.TermJmp:
			if !l.Contains(b.Term.Then) {
				out = append(out, ExitEdge{From: b, To: b.Term.Then})
			}
		case ir.TermBr:
			if !l.Contains(b.Term.Then) {
				out = append(out, ExitEdge{From: b, To: b.Term.Then, Taken: true})
			}
			if !l.Contains(b.Term.Else) {
				out = append(out, ExitEdge{From: b, To: b.Term.Else})
			}
		case ir.TermSwitch:
			for _, t := range b.Term.Targets {
				if !l.Contains(t) {
					out = append(out, ExitEdge{From: b, To: t, Taken: true})
				}
			}
			if !l.Contains(b.Term.Else) {
				out = append(out, ExitEdge{From: b, To: b.Term.Else})
			}
		}
	}
	return out
}
