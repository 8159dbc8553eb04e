package ssa_test

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/progen"
	"repro/internal/ssa"
)

// buildVerified lowers a generated program to SSA and verifies every
// function; it reports false when the generator's program does not compile.
func buildVerified(t *testing.T, seed int64, cfg progen.Config) (*ssa.Program, bool) {
	t.Helper()
	prog, err := lang.Compile(progen.Generate(seed, cfg))
	if err != nil {
		return nil, false
	}
	prog.NumberBranches(true)
	sp, err := ssa.Build(prog)
	if err != nil {
		t.Fatalf("seed %d: ssa.Build: %v", seed, err)
	}
	for _, f := range sp.Funcs {
		if err := ssa.Verify(f); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	return sp, true
}

// FuzzSSA builds generated programs of fuzzed shape and holds every
// function to ssa.Verify: definitions dominate uses, phis match their
// predecessors, blocks keep their ir origins, and value IDs stay dense.
func FuzzSSA(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		cfg := progen.DefaultConfig()
		cfg.MaxDepth = 2 + int(shape%4)
		cfg.MaxStmtsPerBlock = 3 + int(shape/4%4)
		buildVerified(t, seed, cfg)
	})
}

// TestVerifyRejectsBrokenSSA breaks one invariant at a time in a verified
// function and checks that Verify names it.
func TestVerifyRejectsBrokenSSA(t *testing.T) {
	// A function with a loop, so it has phis, joins and a branch.
	var fn *ssa.Func
	for seed := int64(0); fn == nil; seed++ {
		sp, ok := buildVerified(t, seed, progen.DefaultConfig())
		if !ok {
			continue
		}
		for _, f := range sp.Funcs {
			for _, b := range f.Blocks {
				if len(b.Phis) > 0 && len(b.Preds) == 2 && b.Phis[0].Args[0] != b.Phis[0].Args[1] {
					fn = f
				}
			}
		}
	}
	var join *ssa.Block
	for _, b := range fn.Blocks {
		if join == nil && len(b.Phis) > 0 && len(b.Preds) == 2 && b.Phis[0].Args[0] != b.Phis[0].Args[1] {
			join = b
		}
	}
	phi := join.Phis[0]
	cases := []struct {
		name   string
		want   string
		mutate func() func()
	}{
		{"phi arity", "arguments for", func() func() {
			args := phi.Args
			phi.Args = args[:1]
			return func() { phi.Args = args }
		}},
		{"swapped phi arguments", "does not dominate", func() func() {
			a, b := phi.Args[0], phi.Args[1]
			phi.Args[0], phi.Args[1] = b, a
			return func() { phi.Args[0], phi.Args[1] = a, b }
		}},
		{"lost origin", "no origin", func() func() {
			o := join.Orig
			join.Orig = &ir.Block{ID: o.ID}
			return func() { join.Orig = o }
		}},
		{"value ID out of range", "outside", func() func() {
			id := phi.ID
			phi.ID = fn.NumValues()
			return func() { phi.ID = id }
		}},
		{"unplaced operand", "placed in no block", func() func() {
			a := phi.Args[0]
			phi.Args[0] = &ssa.Value{ID: a.ID + fn.NumValues()}
			return func() { phi.Args[0] = a }
		}},
		{"edge index", "does not enter", func() func() {
			// The edge entering join as its predecessor 0.
			p := join.Preds[0]
			succ := func(k int) *ssa.Block {
				switch {
				case p.Term.Op == ir.TermSwitch && k < len(p.Term.Targets):
					return p.Term.Targets[k]
				case p.Term.Op == ir.TermSwitch || k == 1:
					return p.Term.Else
				}
				return p.Term.Then
			}
			k := 0
			for succ(k) != join || p.PredIdx[k] != 0 {
				k++
			}
			old := p.PredIdx[k]
			p.PredIdx[k] = len(join.Preds)
			return func() { p.PredIdx[k] = old }
		}},
	}
	for _, tc := range cases {
		restore := tc.mutate()
		err := ssa.Verify(fn)
		restore()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if err := ssa.Verify(fn); err != nil {
		t.Fatalf("restored function fails: %v", err)
	}
}
