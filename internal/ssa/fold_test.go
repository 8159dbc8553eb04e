package ssa

import (
	"testing"

	"repro/internal/ir"
)

// buildDegenerate constructs a function whose conditional branch has
// identical arms — the shape ir.Validate rejects, which Build must still
// fold defensively into an unconditional jump.
func buildDegenerate(t *testing.T) (*ir.Program, *ir.Func) {
	t.Helper()
	p := ir.NewProgram()
	f := &ir.Func{Name: "degen", NRegs: 2, RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	entry := f.NewBlock("entry")
	next := f.NewBlock("next")
	f.Entry = entry
	entry.Instrs = append(entry.Instrs,
		ir.Instr{Op: ir.OpConstI, Dst: 0, Imm: 7},
		ir.Instr{Op: ir.OpConstI, Dst: 1, Imm: 1},
	)
	entry.Term = ir.Term{Op: ir.TermBr, Cond: 1, Then: next, Else: next, Site: 0, Orig: 0}
	next.Term = ir.Term{Op: ir.TermRet, HasVal: true, A: 0}
	return p, f
}

func TestBuildFoldsDegenerateBranch(t *testing.T) {
	p, _ := buildDegenerate(t)
	sp, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	sf := sp.Funcs[0]
	if err := Verify(sf); err != nil {
		t.Fatal(err)
	}
	entry := sf.Entry
	if entry.Term.Op != ir.TermJmp {
		t.Fatalf("degenerate br not folded: terminator is %v", entry.Term.Op)
	}
	if entry.Term.Cond != nil || entry.Term.Else != nil || entry.Term.Src != nil {
		t.Fatalf("folded jump kept branch state: %+v", entry.Term)
	}
	next := entry.Term.Then
	if next == nil || len(next.Preds) != 1 || next.Preds[0] != entry {
		t.Fatalf("folded edge wiring wrong: preds %v", next.Preds)
	}
	// The fold must leave no trace in the phi slots either: one pred, so
	// any phi has exactly one argument.
	for _, phi := range next.Phis {
		if len(phi.Args) != 1 {
			t.Fatalf("phi over folded edge has %d args", len(phi.Args))
		}
	}
}

func TestBuildKeepsRealBranch(t *testing.T) {
	p := ir.NewProgram()
	f := &ir.Func{Name: "real", NRegs: 1, RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	entry := f.NewBlock("entry")
	a := f.NewBlock("a")
	b := f.NewBlock("b")
	f.Entry = entry
	entry.Instrs = append(entry.Instrs, ir.Instr{Op: ir.OpConstI, Dst: 0, Imm: 1})
	entry.Term = ir.Term{Op: ir.TermBr, Cond: 0, Then: a, Else: b, Site: 0, Orig: 0}
	a.Term = ir.Term{Op: ir.TermRet, HasVal: true, A: 0}
	b.Term = ir.Term{Op: ir.TermRet, HasVal: true, A: 0}
	sp, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sp.Funcs[0]); err != nil {
		t.Fatal(err)
	}
	term := &sp.Funcs[0].Entry.Term
	if term.Op != ir.TermBr || term.Cond == nil || term.Src == nil || term.Then == term.Else {
		t.Fatalf("real branch mangled: %+v", term)
	}
}
