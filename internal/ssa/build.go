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
	// phiVar names the ir register a placed phi merges, used while renaming.
	phiVar map[*Value]ir.Reg
	// stacks holds the reaching definition per register during renaming.
	stacks [][]*Value
}

func buildFunc(irf *ir.Func) (*Func, error) {
	f := &Func{Ir: irf}
	b := &builder{f: f, ir: irf, bmap: make([]*Block, len(irf.Blocks)), phiVar: make(map[*Value]ir.Reg)}

	// Blocks, in ir order, restricted to blocks reachable from the entry.
	reach := reachable(irf)
	for _, ib := range irf.Blocks {
		if reach[ib.ID] {
			b.bmap[ib.ID] = f.newBlock(ib)
		}
	}
	f.Entry = b.bmap[irf.Entry.ID]
	if f.Entry == nil {
		return nil, fmt.Errorf("entry block unreachable")
	}

	// Edges: skeleton terminators (targets only) and predecessor lists in
	// deterministic edge order. Values are filled in during renaming.
	for _, ib := range irf.Blocks {
		sb := b.bmap[ib.ID]
		if sb == nil {
			continue
		}
		sb.Term.Op = ib.Term.Op
		switch ib.Term.Op {
		case ir.TermJmp:
			sb.Term.Then = b.bmap[ib.Term.Then.ID]
			sb.Term.Then.Preds = append(sb.Term.Then.Preds, sb)
		case ir.TermBr:
			if ib.Term.Then == ib.Term.Else {
				// Degenerate cond-br (identical arms): fold to an
				// unconditional jump so downstream consumers never see a
				// two-way edge pair to one target. ir.Validate rejects
				// this shape, but Build stays defensive for hand-built
				// inputs.
				sb.Term.Op = ir.TermJmp
				sb.Term.Then = b.bmap[ib.Term.Then.ID]
				sb.Term.Then.Preds = append(sb.Term.Then.Preds, sb)
				break
			}
			sb.Term.Then = b.bmap[ib.Term.Then.ID]
			sb.Term.Else = b.bmap[ib.Term.Else.ID]
			sb.Term.Src = &ib.Term
			sb.Term.Then.Preds = append(sb.Term.Then.Preds, sb)
			sb.Term.Else.Preds = append(sb.Term.Else.Preds, sb)
		case ir.TermSwitch:
			// Never folded, even when every target coincides: the switch is
			// a trace-observable dispatch site.
			sb.Term.Targets = make([]*Block, len(ib.Term.Targets))
			for ti, tb := range ib.Term.Targets {
				st := b.bmap[tb.ID]
				sb.Term.Targets[ti] = st
				st.Preds = append(st.Preds, sb)
			}
			sb.Term.Else = b.bmap[ib.Term.Else.ID]
			sb.Term.Else.Preds = append(sb.Term.Else.Preds, sb)
			sb.Term.Src = &ib.Term
		case ir.TermRet:
			sb.Term.HasVal = ib.Term.HasVal
		default:
			return nil, fmt.Errorf("%s: missing terminator", ib)
		}
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
func (b *builder) placePhis() {
	nRegs := b.ir.NRegs
	defsites := make([][]*Block, nRegs)
	hasDef := make([]map[*Block]bool, nRegs)
	addDef := func(r ir.Reg, blk *Block) {
		if hasDef[r] == nil {
			hasDef[r] = map[*Block]bool{}
		}
		if !hasDef[r][blk] {
			hasDef[r][blk] = true
			defsites[r] = append(defsites[r], blk)
		}
	}
	for r := 0; r < nRegs; r++ {
		addDef(ir.Reg(r), b.f.Entry)
	}
	for _, blk := range b.f.Blocks {
		for i := range blk.Orig.Instrs {
			in := &blk.Orig.Instrs[i]
			if in.Op.HasDst() && in.Dst != ir.NoReg {
				addDef(in.Dst, blk)
			}
		}
	}
	for r := 0; r < nRegs; r++ {
		placed := map[*Block]bool{}
		work := append([]*Block(nil), defsites[r]...)
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for _, j := range d.df {
				if placed[j] {
					continue
				}
				placed[j] = true
				phi := b.f.newValue(OpPhi, 0)
				phi.Args = make([]*Value, len(j.Preds))
				j.Phis = append(j.Phis, phi)
				b.phiVar[phi] = ir.Reg(r)
				if !hasDef[ir.Reg(r)][j] {
					addDef(ir.Reg(r), j)
					work = append(work, j)
				}
			}
		}
	}
}

// rename walks the dominator tree rewriting register operands into SSA
// values and filling phi arguments edge by edge.
func (b *builder) rename() error {
	b.stacks = make([][]*Value, b.ir.NRegs)

	// Initial definitions in the entry block: parameters in their slots,
	// a shared zero constant for everything else (interpreter frames start
	// zeroed).
	entry := b.f.Entry
	var zero *Value
	for r := 0; r < b.ir.NRegs; r++ {
		var v *Value
		if r < b.ir.NParams {
			v = b.f.newValue(OpParam, int64(r))
			entry.Code = append(entry.Code, v)
		} else {
			if zero == nil {
				zero = b.f.newValue(Op(ir.OpConstI), 0)
				entry.Code = append(entry.Code, zero)
			}
			v = zero
		}
		b.stacks[r] = append(b.stacks[r], v)
	}
	return b.renameBlock(entry)
}

func (b *builder) top(r ir.Reg) *Value { s := b.stacks[r]; return s[len(s)-1] }

func (b *builder) renameBlock(blk *Block) error {
	var pushed []ir.Reg
	push := func(r ir.Reg, v *Value) {
		b.stacks[r] = append(b.stacks[r], v)
		pushed = append(pushed, r)
	}

	for _, phi := range blk.Phis {
		push(b.phiVar[phi], phi)
	}

	for i := range blk.Orig.Instrs {
		in := &blk.Orig.Instrs[i]
		if in.Op == ir.OpNop {
			continue
		}
		if !in.Op.Valid() {
			return fmt.Errorf("%s: invalid opcode %s", blk, in.Op)
		}
		v := b.f.newValue(Op(in.Op), 0)
		if in.Op.HasImm() {
			v.Imm = in.Imm
		}
		switch in.Op.NumSrc() {
		case 1:
			v.Args = []*Value{b.top(in.A)}
		case 2:
			v.Args = []*Value{b.top(in.A), b.top(in.B)}
		}
		if in.Op == ir.OpCall {
			v.Args = make([]*Value, len(in.Args))
			for ai, ar := range in.Args {
				v.Args[ai] = b.top(ar)
			}
		}
		blk.Code = append(blk.Code, v)
		if in.Op.HasDst() && in.Dst != ir.NoReg {
			push(in.Dst, v)
		}
	}

	t := &blk.Orig.Term
	switch t.Op {
	case ir.TermBr:
		// A degenerate br was folded to a jump during edge wiring; its
		// condition is not an SSA use.
		if blk.Term.Op == ir.TermBr {
			blk.Term.Cond = b.top(t.Cond)
		}
	case ir.TermSwitch:
		blk.Term.Cond = b.top(t.Cond)
	case ir.TermRet:
		if t.HasVal {
			blk.Term.Val = b.top(t.A)
		}
	}

	// Fill phi arguments of successors: one slot per incoming edge.
	for _, s := range blk.succs() {
		for i, p := range s.Preds {
			if p != blk {
				continue
			}
			for _, phi := range s.Phis {
				phi.Args[i] = b.top(b.phiVar[phi])
			}
		}
	}

	for _, k := range blk.Kids {
		if err := b.renameBlock(k); err != nil {
			return err
		}
	}

	for i := len(pushed) - 1; i >= 0; i-- {
		r := pushed[i]
		b.stacks[r] = b.stacks[r][:len(b.stacks[r])-1]
	}
	return nil
}
