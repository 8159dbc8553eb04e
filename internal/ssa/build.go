package ssa

import (
	"fmt"

	"repro/internal/ir"
)

// Build lowers a validated ir.Program into SSA form: one SSA function per ir
// function (parallel slices), with dominators computed, phis placed at
// iterated dominance frontiers, and every register use rewritten to the
// reaching definition (mem2reg). Unreachable blocks are dropped: the
// interpreter never executes them.
//
// Source programs are untrusted (kralld's /v1/analyze builds whatever it is
// sent), so construction keeps every table dense and indexed by block,
// value or register ID, and its memory stays linear in values + edges +
// definitions: nothing is ever sized registers × blocks.
func Build(p *ir.Program) (*Program, error) {
	sp := &Program{Ir: p, Funcs: make([]*Func, len(p.Funcs))}
	for i, f := range p.Funcs {
		sf, err := buildFunc(f)
		if err != nil {
			return nil, fmt.Errorf("ssa: %s: %w", f.Name, err)
		}
		sp.Funcs[i] = sf
	}
	return sp, nil
}

type builder struct {
	f    *Func
	ir   *ir.Func
	bmap []*Block // ir block ID -> ssa block (nil if unreachable)
	// phiVar names the ir register each phi merges, by value ID: placePhis
	// creates every phi before renaming creates any other value, so phi
	// IDs are exactly 0..len(phiVar)-1.
	phiVar []ir.Reg
	// cur is the reaching definition per register during renaming; undo
	// stacks the (register, previous definition) pairs a dominator-tree
	// walk restores on the way back up.
	cur   []*Value
	undo  []undoDef
	succs []*Block // scratch for one block's successors

	// vals and args are chunked arenas for values and their argument
	// slices; a chunk is never reallocated, so pointers into it stay valid.
	vals []Value
	args []*Value
	// chunk sizes the arenas: a guess at the function's value count.
	chunk int
}

type undoDef struct {
	r    ir.Reg
	prev *Value
}

// newValue creates a fresh value; it does not place it in a block.
func (b *builder) newValue(op Op, imm int64) *Value {
	if len(b.vals) == cap(b.vals) {
		b.vals = make([]Value, 0, b.chunk)
	}
	b.vals = append(b.vals, Value{ID: b.f.nextID, Op: op, Imm: imm})
	b.f.nextID++
	return &b.vals[len(b.vals)-1]
}

// argSlice returns n argument slots carved from the argument arena.
func (b *builder) argSlice(n int) []*Value {
	if n == 0 {
		return nil
	}
	if cap(b.args)-len(b.args) < n {
		b.args = make([]*Value, 0, max(n, 2*b.chunk))
	}
	s := b.args[len(b.args) : len(b.args)+n : len(b.args)+n]
	b.args = b.args[:len(b.args)+n]
	return s
}

func buildFunc(irf *ir.Func) (*Func, error) {
	f := &Func{Ir: irf}
	b := &builder{f: f, ir: irf, bmap: make([]*Block, len(irf.Blocks))}

	// Blocks, in ir order, restricted to blocks reachable from the entry.
	// One counting pass sizes the shared backing arrays: blocks, incoming
	// edges per block, outgoing edges and code slots.
	reach := reachable(irf)
	nblocks, nedges, ninstrs := 0, 0, irf.NParams+1
	indeg := make([]int, len(irf.Blocks))
	for _, ib := range irf.Blocks {
		if !reach[ib.ID] {
			continue
		}
		nblocks++
		ninstrs += len(ib.Instrs)
		t := &ib.Term
		switch t.Op {
		case ir.TermJmp:
			indeg[t.Then.ID]++
		case ir.TermBr:
			indeg[t.Then.ID]++
			if t.Else != t.Then {
				indeg[t.Else.ID]++
			}
		case ir.TermSwitch:
			for _, tb := range t.Targets {
				indeg[tb.ID]++
			}
			indeg[t.Else.ID]++
		}
	}
	for _, d := range indeg {
		nedges += d
	}
	b.chunk = max(64, ninstrs)
	blocks := make([]Block, nblocks)
	f.Blocks = make([]*Block, 0, nblocks)
	preds := make([]*Block, nedges)
	predIdx := make([]int, 0, nedges)
	code := make([]*Value, ninstrs)
	for _, ib := range irf.Blocks {
		if !reach[ib.ID] {
			continue
		}
		sb := &blocks[len(f.Blocks)]
		sb.ID, sb.Orig = len(f.Blocks), ib
		sb.Preds, preds = preds[:0:indeg[ib.ID]], preds[indeg[ib.ID]:]
		n := len(ib.Instrs)
		if ib == irf.Entry {
			n += irf.NParams + 1
		}
		sb.Code, code = code[:0:n], code[n:]
		f.Blocks = append(f.Blocks, sb)
		b.bmap[ib.ID] = sb
	}
	f.Entry = b.bmap[irf.Entry.ID]
	if f.Entry == nil {
		return nil, fmt.Errorf("entry block unreachable")
	}

	// Edges: skeleton terminators (targets only), predecessor lists in
	// deterministic edge order, and each edge's index in its target's
	// Preds. Values are filled in during renaming.
	for _, ib := range irf.Blocks {
		sb := b.bmap[ib.ID]
		if sb == nil {
			continue
		}
		start := len(predIdx)
		link := func(to *Block) *Block {
			predIdx = append(predIdx, len(to.Preds))
			to.Preds = append(to.Preds, sb)
			return to
		}
		sb.Term.Op = ib.Term.Op
		switch ib.Term.Op {
		case ir.TermJmp:
			sb.Term.Then = link(b.bmap[ib.Term.Then.ID])
		case ir.TermBr:
			if ib.Term.Then == ib.Term.Else {
				// Degenerate cond-br (identical arms): fold to an
				// unconditional jump so downstream consumers never see a
				// two-way edge pair to one target. ir.Validate rejects
				// this shape, but Build stays defensive for hand-built
				// inputs.
				sb.Term.Op = ir.TermJmp
				sb.Term.Then = link(b.bmap[ib.Term.Then.ID])
				break
			}
			sb.Term.Then = link(b.bmap[ib.Term.Then.ID])
			sb.Term.Else = link(b.bmap[ib.Term.Else.ID])
			sb.Term.Src = &ib.Term
		case ir.TermSwitch:
			// Never folded, even when every target coincides: the switch is
			// a trace-observable dispatch site.
			sb.Term.Targets = make([]*Block, len(ib.Term.Targets))
			for ti, tb := range ib.Term.Targets {
				sb.Term.Targets[ti] = link(b.bmap[tb.ID])
			}
			sb.Term.Else = link(b.bmap[ib.Term.Else.ID])
			sb.Term.Src = &ib.Term
		case ir.TermRet:
			sb.Term.HasVal = ib.Term.HasVal
		default:
			return nil, fmt.Errorf("%s: missing terminator", ib)
		}
		sb.PredIdx = predIdx[start:len(predIdx):len(predIdx)]
	}

	computeFrontiers(dominatorTree(f))

	b.placePhis()
	if err := b.rename(); err != nil {
		return nil, err
	}
	return f, nil
}

// reachable marks the ir blocks reachable from the entry.
func reachable(f *ir.Func) []bool {
	seen := make([]bool, len(f.Blocks))
	stack := []*ir.Block{f.Entry}
	seen[f.Entry.ID] = true
	var succs []*ir.Block
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		succs = blk.Succs(succs[:0])
		for _, s := range succs {
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// placePhis inserts phi nodes at the iterated dominance frontier of each
// register's definition sites. The entry block counts as a definition site
// for every register: parameters arrive there and the interpreter zeroes the
// rest of the frame, so every register has an initial value.
//
// Definition sites are one flat array (entry first, then the defining
// blocks in block order), and the per-register "placed" and "has a
// definition" sets are stamp arrays over block IDs, reset for free by
// moving to the next register's stamp.
func (b *builder) placePhis() {
	nRegs := b.ir.NRegs
	entry := b.f.Entry
	// last[r] is 1 + the ID of the block last listed as a def site of r.
	last := make([]int32, nRegs)
	off := make([]int, nRegs+1)
	eachDef := func(visit func(r ir.Reg, blk *Block)) {
		for r := range last {
			last[r] = int32(entry.ID) + 1
			visit(ir.Reg(r), entry)
		}
		for _, blk := range b.f.Blocks {
			if blk == entry {
				continue
			}
			for i := range blk.Orig.Instrs {
				in := &blk.Orig.Instrs[i]
				if in.Op.HasDst() && in.Dst != ir.NoReg && last[in.Dst] != int32(blk.ID)+1 {
					last[in.Dst] = int32(blk.ID) + 1
					visit(in.Dst, blk)
				}
			}
		}
	}
	eachDef(func(r ir.Reg, _ *Block) { off[r+1]++ })
	for r := 0; r < nRegs; r++ {
		off[r+1] += off[r]
	}
	defs := make([]*Block, off[nRegs])
	fill := append([]int(nil), off[:nRegs]...)
	eachDef(func(r ir.Reg, blk *Block) {
		defs[fill[r]] = blk
		fill[r]++
	})

	placed := make([]int32, len(b.f.Blocks))
	hasDef := make([]int32, len(b.f.Blocks))
	var work []*Block
	for r := 0; r < nRegs; r++ {
		stamp := int32(r) + 1
		work = append(work[:0], defs[off[r]:off[r+1]]...)
		for _, d := range work {
			hasDef[d.ID] = stamp
		}
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for _, j := range d.df {
				if placed[j.ID] == stamp {
					continue
				}
				placed[j.ID] = stamp
				phi := b.newValue(OpPhi, 0)
				phi.Args = b.argSlice(len(j.Preds))
				j.Phis = append(j.Phis, phi)
				b.phiVar = append(b.phiVar, ir.Reg(r))
				if hasDef[j.ID] != stamp {
					hasDef[j.ID] = stamp
					work = append(work, j)
				}
			}
		}
	}
}

// rename walks the dominator tree rewriting register operands into SSA
// values and filling phi arguments edge by edge.
func (b *builder) rename() error {
	b.cur = make([]*Value, b.ir.NRegs)

	// Initial definitions in the entry block: parameters in their slots,
	// a shared zero constant for everything else (interpreter frames start
	// zeroed).
	entry := b.f.Entry
	var zero *Value
	for r := 0; r < b.ir.NRegs; r++ {
		var v *Value
		if r < b.ir.NParams {
			v = b.newValue(OpParam, int64(r))
			entry.Code = append(entry.Code, v)
		} else {
			if zero == nil {
				zero = b.newValue(Op(ir.OpConstI), 0)
				entry.Code = append(entry.Code, zero)
			}
			v = zero
		}
		b.cur[r] = v
	}
	return b.renameBlock(entry)
}

// define makes v the reaching definition of r, remembering the previous one.
func (b *builder) define(r ir.Reg, v *Value) {
	b.undo = append(b.undo, undoDef{r, b.cur[r]})
	b.cur[r] = v
}

func (b *builder) renameBlock(blk *Block) error {
	mark := len(b.undo)
	for _, phi := range blk.Phis {
		b.define(b.phiVar[phi.ID], phi)
	}

	for i := range blk.Orig.Instrs {
		in := &blk.Orig.Instrs[i]
		if in.Op == ir.OpNop {
			continue
		}
		if !in.Op.Valid() {
			return fmt.Errorf("%s: invalid opcode %s", blk, in.Op)
		}
		v := b.newValue(Op(in.Op), 0)
		if in.Op.HasImm() {
			v.Imm = in.Imm
		}
		switch in.Op.NumSrc() {
		case 1:
			v.Args = b.argSlice(1)
			v.Args[0] = b.cur[in.A]
		case 2:
			v.Args = b.argSlice(2)
			v.Args[0], v.Args[1] = b.cur[in.A], b.cur[in.B]
		}
		if in.Op == ir.OpCall {
			v.Args = b.argSlice(len(in.Args))
			for ai, ar := range in.Args {
				v.Args[ai] = b.cur[ar]
			}
		}
		blk.Code = append(blk.Code, v)
		if in.Op.HasDst() && in.Dst != ir.NoReg {
			b.define(in.Dst, v)
		}
	}

	t := &blk.Orig.Term
	switch t.Op {
	case ir.TermBr:
		// A degenerate br was folded to a jump during edge wiring; its
		// condition is not an SSA use.
		if blk.Term.Op == ir.TermBr {
			blk.Term.Cond = b.cur[t.Cond]
		}
	case ir.TermSwitch:
		blk.Term.Cond = b.cur[t.Cond]
	case ir.TermRet:
		if t.HasVal {
			blk.Term.Val = b.cur[t.A]
		}
	}

	// Fill phi arguments of successors: edge k is argument PredIdx[k].
	b.succs = blk.appendSuccs(b.succs[:0])
	for k, s := range b.succs {
		i := blk.PredIdx[k]
		for _, phi := range s.Phis {
			phi.Args[i] = b.cur[b.phiVar[phi.ID]]
		}
	}

	for _, k := range blk.Kids {
		if err := b.renameBlock(k); err != nil {
			return err
		}
	}

	for i := len(b.undo) - 1; i >= mark; i-- {
		b.cur[b.undo[i].r] = b.undo[i].prev
	}
	b.undo = b.undo[:mark]
	return nil
}
