package ssa

import (
	"fmt"

	"repro/internal/ir"
)

// Verify checks the invariants the SCCP proofs stand on, independently of
// how Build established them:
//   - every block keeps its ir.Block origin: a block of f.Ir, no two
//     blocks sharing one, and a branch or switch terminator pointing at
//     its origin's terminator;
//   - the edges agree: edge k of a block enters its k-th successor as
//     predecessor PredIdx[k], and every Preds entry is such an edge;
//   - value IDs are below NumValues and each value is placed once;
//   - each phi has one argument per predecessor, and every operand is a
//     placed value;
//   - every definition dominates its uses: a phi argument at the end of
//     its predecessor, an operand before its user, a terminator operand
//     in its block.
//
// The dominator tree (Idom, Kids) is taken as given; FuzzDominators checks
// it against an oracle.
func Verify(f *Func) error {
	if err := verifyBlocks(f); err != nil {
		return fmt.Errorf("ssa verify %s: %w", f.Ir.Name, err)
	}
	if err := verifyValues(f); err != nil {
		return fmt.Errorf("ssa verify %s: %w", f.Ir.Name, err)
	}
	return nil
}

func verifyBlocks(f *Func) error {
	if len(f.Blocks) == 0 || f.Entry == nil || f.Blocks[f.Entry.ID] != f.Entry {
		return fmt.Errorf("entry block missing")
	}
	owner := make([]bool, len(f.Ir.Blocks))
	in := make([]int, len(f.Blocks))
	var succs []*Block
	for i, b := range f.Blocks {
		if b.ID != i {
			return fmt.Errorf("block %d at index %d", b.ID, i)
		}
		o := b.Orig
		if o == nil || o.ID < 0 || o.ID >= len(f.Ir.Blocks) || f.Ir.Blocks[o.ID] != o {
			return fmt.Errorf("block %d has no origin in %s", i, f.Ir.Name)
		}
		if owner[o.ID] {
			return fmt.Errorf("block %d: origin %s shared", i, o)
		}
		owner[o.ID] = true
		if (b.Term.Op == ir.TermBr || b.Term.Op == ir.TermSwitch) && b.Term.Src != &o.Term {
			return fmt.Errorf("%s: terminator lost its ir origin", b)
		}
		succs = b.appendSuccs(succs[:0])
		if len(b.PredIdx) != len(succs) {
			return fmt.Errorf("%s: %d edge indices for %d successors", b, len(b.PredIdx), len(succs))
		}
		for k, s := range succs {
			if s == nil || s.ID < 0 || s.ID >= len(f.Blocks) || f.Blocks[s.ID] != s {
				return fmt.Errorf("%s: successor %d is not a block of the function", b, k)
			}
			if j := b.PredIdx[k]; j < 0 || j >= len(s.Preds) || s.Preds[j] != b {
				return fmt.Errorf("%s: edge %d does not enter %s as predecessor %d", b, k, s, j)
			}
			in[s.ID]++
		}
	}
	for _, b := range f.Blocks {
		if len(b.Preds) != in[b.ID] {
			return fmt.Errorf("%s: %d predecessors for %d incoming edges", b, len(b.Preds), in[b.ID])
		}
	}
	return nil
}

// domOrder numbers the dominator tree in DFS pre- and post-order, so
// a dominates b exactly when pre[a] <= pre[b] and post[b] <= post[a].
func domOrder(f *Func) (pre, post []int, err error) {
	pre, post = make([]int, len(f.Blocks)), make([]int, len(f.Blocks))
	for i := range pre {
		pre[i] = -1
	}
	type frame struct {
		b    *Block
		next int
	}
	clock := 0
	stack := []frame{{b: f.Entry}}
	pre[f.Entry.ID] = clock
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next == len(top.b.Kids) {
			clock++
			post[top.b.ID] = clock
			stack = stack[:len(stack)-1]
			continue
		}
		k := top.b.Kids[top.next]
		top.next++
		if k.Idom != top.b || pre[k.ID] >= 0 {
			return nil, nil, fmt.Errorf("%s: dominator tree is inconsistent", k)
		}
		clock++
		pre[k.ID] = clock
		stack = append(stack, frame{b: k})
	}
	for _, b := range f.Blocks {
		if pre[b.ID] < 0 {
			return nil, nil, fmt.Errorf("%s: not in the dominator tree", b)
		}
	}
	return pre, post, nil
}

func verifyValues(f *Func) error {
	pre, post, err := domOrder(f)
	if err != nil {
		return err
	}
	dominates := func(a, b *Block) bool { return pre[a.ID] <= pre[b.ID] && post[b.ID] <= post[a.ID] }

	// Place every value: its block, and its position there (phis at -1,
	// all defined together on entry).
	nv := f.NumValues()
	def := make([]*Block, nv)
	pos := make([]int, nv)
	place := func(v *Value, b *Block, at int) error {
		if v.ID < 0 || v.ID >= nv {
			return fmt.Errorf("%s: value ID %d outside [0, %d)", b, v.ID, nv)
		}
		if def[v.ID] != nil {
			return fmt.Errorf("%s: v%d placed twice", b, v.ID)
		}
		def[v.ID], pos[v.ID] = b, at
		return nil
	}
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			if v.Op != OpPhi {
				return fmt.Errorf("%s: v%d in the phi list is not a phi", b, v.ID)
			}
			if err := place(v, b, -1); err != nil {
				return err
			}
		}
		for i, v := range b.Code {
			if v.Op == OpPhi {
				return fmt.Errorf("%s: phi v%d in block code", b, v.ID)
			}
			if err := place(v, b, i); err != nil {
				return err
			}
		}
	}
	// operand resolves a use to its definition's block and position.
	operand := func(b *Block, user string, a *Value) (*Block, int, error) {
		if a == nil || a.ID < 0 || a.ID >= nv || def[a.ID] == nil {
			return nil, 0, fmt.Errorf("%s: %s uses a value placed in no block", b, user)
		}
		return def[a.ID], pos[a.ID], nil
	}

	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			if len(v.Args) != len(b.Preds) {
				return fmt.Errorf("%s: phi v%d has %d arguments for %d predecessors", b, v.ID, len(v.Args), len(b.Preds))
			}
			for i, a := range v.Args {
				d, _, err := operand(b, fmt.Sprintf("phi v%d", v.ID), a)
				if err != nil {
					return err
				}
				if !dominates(d, b.Preds[i]) {
					return fmt.Errorf("%s: phi v%d argument %d (v%d in %s) does not dominate predecessor %s",
						b, v.ID, i, a.ID, d, b.Preds[i])
				}
			}
		}
		for i, v := range b.Code {
			if v.Op < pseudoBase {
				if want := v.Op.IR().NumSrc(); v.Op.IR() != ir.OpCall && len(v.Args) != want {
					return fmt.Errorf("%s: v%d (%s) has %d operands, want %d", b, v.ID, v.Op.IR(), len(v.Args), want)
				}
			} else if len(v.Args) != 0 {
				return fmt.Errorf("%s: parameter v%d has operands", b, v.ID)
			}
			for _, a := range v.Args {
				d, at, err := operand(b, fmt.Sprintf("v%d", v.ID), a)
				if err != nil {
					return err
				}
				if d == b && at >= i || d != b && !dominates(d, b) {
					return fmt.Errorf("%s: v%d uses v%d, whose definition in %s does not dominate it", b, v.ID, a.ID, d)
				}
			}
		}
		for _, a := range [2]*Value{b.Term.Cond, b.Term.Val} {
			if a == nil {
				continue
			}
			d, _, err := operand(b, "the terminator", a)
			if err != nil {
				return err
			}
			if !dominates(d, b) {
				return fmt.Errorf("%s: terminator uses v%d, whose definition in %s does not dominate it", b, a.ID, d)
			}
		}
		if b.Term.Op == ir.TermBr || b.Term.Op == ir.TermSwitch {
			if b.Term.Cond == nil {
				return fmt.Errorf("%s: %s without a condition", b, b.Term.Op)
			}
		}
	}
	return nil
}
