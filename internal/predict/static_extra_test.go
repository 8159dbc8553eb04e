package predict

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
)

// featuresOf compiles and analyzes, returning features keyed by condition
// opcode for easy lookup.
func featuresOf(t *testing.T, src string) []SiteFeatures {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(prog)
}

func TestOpcodePredictionTable(t *testing.T) {
	taken := []ir.Op{ir.OpNeI, ir.OpNeF, ir.OpGtI, ir.OpGtF, ir.OpGeI, ir.OpGeF}
	notTaken := []ir.Op{ir.OpEqI, ir.OpEqF, ir.OpLtI, ir.OpLtF, ir.OpLeI, ir.OpLeF}
	for _, op := range taken {
		p, ok := OpcodePrediction(op)
		if !ok || p != ir.PredTaken {
			t.Errorf("%v: want taken", op)
		}
	}
	for _, op := range notTaken {
		p, ok := OpcodePrediction(op)
		if !ok || p != ir.PredNotTaken {
			t.Errorf("%v: want not-taken", op)
		}
	}
	if _, ok := OpcodePrediction(ir.OpAddI); ok {
		t.Error("non-compare must be inapplicable")
	}
}

func TestOpcodeStaticVector(t *testing.T) {
	fts := featuresOf(t, `
func main() int {
    var a int = 3;
    var s int = 0;
    if a != 2 { s = s + 1; }
    if a == 3 { s = s + 1; }
    return s;
}`)
	st := OpcodeStatic(fts)
	if len(st.Preds) != 2 {
		t.Fatalf("preds = %v", st.Preds)
	}
	// First branch tests !=, predicted taken; second ==, not taken.
	if st.Preds[0] != ir.PredTaken || st.Preds[1] != ir.PredNotTaken {
		t.Fatalf("opcode preds = %v", st.Preds)
	}
}

func TestBallLarusHeuristicOrder(t *testing.T) {
	// Return heuristic: then-side returns, else continues; condition is a
	// bool variable (no visible compare) so the opcode heuristic is
	// inapplicable and Return decides.
	fts := featuresOf(t, `
func f(flag bool) int {
    if flag { return 1; }
    return 0;
}
func main() int { return f(true); }`)
	if len(fts) != 1 {
		t.Fatalf("features = %d", len(fts))
	}
	// Both sides return here... check flags first.
	ft := fts[0]
	if !ft.TakenRet {
		t.Fatal("then-return not detected")
	}

	// With an opaque condition, the Return heuristic fires before Store:
	// the else side falls into the returning join block, so the branch is
	// predicted taken ("avoid branches to blocks which return").
	fts = featuresOf(t, `
var g int;
func f(flag bool) int {
    var s int = 0;
    if flag { g = 1; s = s + 1; }
    s = s + 2;
    return s;
}
func main() int { return f(false); }`)
	if !fts[0].ElseRet || fts[0].TakenRet {
		t.Fatalf("return flags wrong: %+v", fts[0])
	}
	if !fts[0].TakenStore || fts[0].ElseStore {
		t.Fatalf("store flags wrong: %+v", fts[0])
	}
	bl := BallLarus(fts)
	if bl.Preds[0] != ir.PredTaken {
		t.Fatalf("return heuristic: %v, want taken", bl.Preds[0])
	}
	// With both sides returning, Return is inapplicable and Store decides:
	// avoid the storing side.
	fts = featuresOf(t, `
var g int;
func f(flag bool) int {
    if flag { g = 1; return 1; }
    return 0;
}
func main() int { return f(false); }`)
	if fts[0].TakenRet != fts[0].ElseRet {
		t.Skipf("shape differs: %+v", fts[0])
	}
	bl = BallLarus(fts)
	if bl.Preds[0] != ir.PredNotTaken {
		t.Fatalf("store heuristic: %v, want not-taken", bl.Preds[0])
	}

	// Guard heuristic: successor uses the compared operand.
	fts = featuresOf(t, `
var sink int;
func f(a bool, b bool) int {
    var s int = 0;
    if a && b { sink = 1; } else { sink = 2; }
    if a || b { s = 1; } else { s = 2; }
    return s;
}
func main() int { return f(true, false); }`)
	bl = BallLarus(fts)
	for i, p := range bl.Preds {
		if p == ir.PredNone {
			t.Fatalf("branch %d unpredicted", i)
		}
	}
}

func TestBackwardTakenDoWhileShape(t *testing.T) {
	// Hand-build a bottom-tested loop so the conditional branch IS the
	// back edge: entry -> body; body -> (body | exit) with taken = back.
	p := ir.NewProgram()
	f := &ir.Func{Name: "main", NRegs: 2, RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder(f)
	n := f.NewReg()
	body := b.Block("body")
	exit := b.Block("exit")
	b.Jmp(body)
	b.SetBlock(body)
	one := b.ConstI(1)
	dec := b.Binary(ir.OpSubI, n, one)
	b.Mov(n, dec)
	cond := b.Binary(ir.OpGtI, n, one)
	b.Br(cond, body, exit)
	b.SetBlock(exit)
	b.RetVal(n)
	p.NumberBranches(true)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	fts := Analyze(p)
	if !fts[0].TakenBack {
		t.Fatal("back edge not detected")
	}
	bt := BackwardTaken(fts)
	if bt.Preds[0] != ir.PredTaken {
		t.Fatal("back edge must be predicted taken")
	}
	// Reversed polarity: else is the back edge.
	body.Term.Then, body.Term.Else = body.Term.Else, body.Term.Then
	fts = Analyze(p)
	bt = BackwardTaken(fts)
	if bt.Preds[0] != ir.PredNotTaken {
		t.Fatal("reversed back edge must be predicted not-taken")
	}
}

func TestCondCompareThroughMov(t *testing.T) {
	// A condition forwarded through a Mov must still resolve.
	p := ir.NewProgram()
	f := &ir.Func{Name: "main", NRegs: 1, RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder(f)
	x := b.ConstI(1)
	cmp := b.Binary(ir.OpLtI, x, x)
	cpy := f.NewReg()
	b.Mov(cpy, cmp)
	then := b.Block("t")
	els := b.Block("e")
	b.Br(cpy, then, els)
	b.SetBlock(then)
	b.RetVal(x)
	b.SetBlock(els)
	b.RetVal(x)
	p.NumberBranches(true)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	fts := Analyze(p)
	if fts[0].CmpOp != ir.OpLtI {
		t.Fatalf("CmpOp through mov = %v", fts[0].CmpOp)
	}
}

// BenchmarkAnalyzeFlatIfs analyzes one function of 33,000 sequential ifs,
// more branch sites than a profile can hold: kralld runs this analysis on
// every cold source request before it can refuse such a program, so its
// cost must stay linear in the function's branch count.
func BenchmarkAnalyzeFlatIfs(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("var x int;\n\nfunc main() int {\n")
	for i := 0; i < 33_000; i++ {
		sb.WriteString("    if x > 0 { x = x - 1; }\n")
	}
	sb.WriteString("    return x;\n}\n")
	prog, err := lang.Compile(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(Analyze(prog)); got != 33_000 {
			b.Fatalf("analyzed %d sites, want 33000", got)
		}
	}
}
