package interp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

// buildLoop constructs main() { s=0; for n=arg..1 { s+=n }; return s } with
// the loop bound loaded from global "n".
func buildLoop(t *testing.T) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "n", Type: ir.TInt, Len: 1}); err != nil {
		t.Fatal(err)
	}
	f := &ir.Func{Name: "main", RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder(f)
	n := f.NewReg()
	s := f.NewReg()
	b.Mov(n, b.LoadG(p.Global("n")))
	zero := b.ConstI(0)
	b.Mov(s, zero)
	head := b.Block("head")
	body := b.Block("body")
	exit := b.Block("exit")
	b.Jmp(head)
	b.SetBlock(head)
	b.Br(b.Binary(ir.OpGtI, n, zero), body, exit)
	b.SetBlock(body)
	b.Mov(s, b.Binary(ir.OpAddI, s, n))
	b.Mov(n, b.Binary(ir.OpSubI, n, b.ConstI(1)))
	b.Jmp(head)
	b.SetBlock(exit)
	b.RetVal(s)
	p.NumberBranches(true)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoopSum(t *testing.T) {
	p := buildLoop(t)
	m := New(p)
	if err := m.SetGlobal("n", 10); err != nil {
		t.Fatal(err)
	}
	got, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
	if m.Branches != 11 {
		t.Fatalf("branches = %d, want 11", m.Branches)
	}
}

func TestBranchHookSeesOutcomes(t *testing.T) {
	p := buildLoop(t)
	m := New(p)
	if err := m.SetGlobal("n", 4); err != nil {
		t.Fatal(err)
	}
	var got []bool
	m.Hook = func(tm *ir.Term, taken bool) {
		if tm.Site != 0 {
			t.Errorf("unexpected site %d", tm.Site)
		}
		got = append(got, taken)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, true, true, false}
	if len(got) != len(want) {
		t.Fatalf("outcomes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outcomes = %v, want %v", got, want)
		}
	}
}

func TestPredictionAccounting(t *testing.T) {
	p := buildLoop(t)
	// Predict taken: correct 10 times, wrong once (the exit).
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.Term.Op == ir.TermBr {
				b.Term.Pred = ir.PredTaken
			}
		}
	}
	m := New(p)
	if err := m.SetGlobal("n", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Predicted != 11 || m.Mispredicted != 1 {
		t.Fatalf("predicted=%d mispredicted=%d, want 11/1", m.Predicted, m.Mispredicted)
	}
}

func TestBranchLimit(t *testing.T) {
	p := buildLoop(t)
	m := New(p)
	if err := m.SetGlobal("n", 1000000); err != nil {
		t.Fatal(err)
	}
	m.MaxBranches = 100
	_, err := m.Run()
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
	if m.Branches != 100 {
		t.Fatalf("branches = %d, want exactly 100", m.Branches)
	}
}

func TestStepLimit(t *testing.T) {
	p := buildLoop(t)
	m := New(p)
	if err := m.SetGlobal("n", 1000000); err != nil {
		t.Fatal(err)
	}
	m.MaxSteps = 500
	_, err := m.Run()
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
}

func TestResetRestoresGlobals(t *testing.T) {
	p := buildLoop(t)
	m := New(p)
	if err := m.SetGlobal("n", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	first := m.Branches
	m.Reset()
	if m.Branches != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if v, _ := m.GlobalValue("n"); v != 0 {
		t.Fatalf("Reset left n = %d, want 0 (the declared init)", v)
	}
	if err := m.SetGlobal("n", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Branches != first {
		t.Fatalf("rerun branches = %d, want %d", m.Branches, first)
	}
}

// buildOp makes main() { return <op>(a, b) } reading a, b from globals.
func buildOp(t *testing.T, op ir.Op) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	for _, n := range []string{"a", "b"} {
		if err := p.AddGlobal(&ir.Global{Name: n, Type: ir.TInt, Len: 1}); err != nil {
			t.Fatal(err)
		}
	}
	f := &ir.Func{Name: "main", RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder(f)
	av := b.LoadG(p.Global("a"))
	bv := b.LoadG(p.Global("b"))
	var res ir.Reg
	if op.NumSrc() == 2 {
		res = b.Binary(op, av, bv)
	} else {
		res = b.Unary(op, av)
	}
	b.RetVal(res)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func runOp(t *testing.T, p *ir.Program, a, b int64) (int64, error) {
	t.Helper()
	m := New(p)
	if err := m.SetGlobal("a", a); err != nil {
		t.Fatal(err)
	}
	if err := m.SetGlobal("b", b); err != nil {
		t.Fatal(err)
	}
	return m.Run()
}

func TestIntegerOpsMatchGo(t *testing.T) {
	cases := []struct {
		op ir.Op
		fn func(a, b int64) int64
	}{
		{ir.OpAddI, func(a, b int64) int64 { return a + b }},
		{ir.OpSubI, func(a, b int64) int64 { return a - b }},
		{ir.OpMulI, func(a, b int64) int64 { return a * b }},
		{ir.OpAndI, func(a, b int64) int64 { return a & b }},
		{ir.OpOrI, func(a, b int64) int64 { return a | b }},
		{ir.OpXorI, func(a, b int64) int64 { return a ^ b }},
		{ir.OpShlI, func(a, b int64) int64 { return a << (uint64(b) & 63) }},
		{ir.OpShrI, func(a, b int64) int64 { return a >> (uint64(b) & 63) }},
		{ir.OpMinI, func(a, b int64) int64 { return min64(a, b) }},
		{ir.OpMaxI, func(a, b int64) int64 { return max64(a, b) }},
	}
	for _, c := range cases {
		p := buildOp(t, c.op)
		check := func(a, b int64) bool {
			got, err := runOp(t, p, a, b)
			return err == nil && got == c.fn(a, b)
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%v: %v", c.op, err)
		}
	}
}

func TestDivisionTraps(t *testing.T) {
	p := buildOp(t, ir.OpDivI)
	if got, err := runOp(t, p, 7, 2); err != nil || got != 3 {
		t.Fatalf("7/2 = %d, %v", got, err)
	}
	_, err := runOp(t, p, 7, 0)
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("want RuntimeError, got %v", err)
	}
	pm := buildOp(t, ir.OpModI)
	if _, err := runOp(t, pm, 7, 0); err == nil {
		t.Fatal("modulo by zero must trap")
	}
	for _, op := range []ir.Op{ir.OpDivI, ir.OpModI} {
		for _, viaGlobals := range []bool{true, false} {
			if _, err := evalOp(t, op, 42, 0, viaGlobals); !errors.As(err, &re) {
				t.Fatalf("%v by zero (globals=%v): want RuntimeError, got %v", op, viaGlobals, err)
			}
		}
	}
}

func TestFloatOps(t *testing.T) {
	p := ir.NewProgram()
	f := &ir.Func{Name: "main", RetType: ir.TFloat}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder(f)
	x := b.ConstF(2.0)
	y := b.ConstF(0.5)
	sum := b.Binary(ir.OpAddF, x, y)    // 2.5
	prod := b.Binary(ir.OpMulF, sum, y) // 1.25
	rt := b.Unary(ir.OpSqrtF, prod)     // ~1.1180
	b.RetVal(rt)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m := New(p)
	bits, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := math.Float64frombits(uint64(bits))
	want := math.Sqrt(1.25)
	if got != want {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestArrayBoundsTrap(t *testing.T) {
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "arr", Type: ir.TInt, Len: 4, Array: true}); err != nil {
		t.Fatal(err)
	}
	f := &ir.Func{Name: "main", RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder(f)
	idx := b.ConstI(4) // out of range
	v := b.LoadElem(p.Globals[0], idx)
	b.RetVal(v)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	_, err := New(p).Run()
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("want RuntimeError, got %v", err)
	}
}

func TestCallsAndRecursion(t *testing.T) {
	p := ir.NewProgram()
	fib := &ir.Func{Name: "fib", NParams: 1, NRegs: 1, RetType: ir.TInt}
	if err := p.AddFunc(fib); err != nil {
		t.Fatal(err)
	}
	main := &ir.Func{Name: "main", RetType: ir.TInt}
	if err := p.AddFunc(main); err != nil {
		t.Fatal(err)
	}
	// fib(n) = n < 2 ? n : fib(n-1)+fib(n-2)
	b := ir.NewBuilder(fib)
	n := ir.Reg(0)
	two := b.ConstI(2)
	base := b.Block("base")
	rec := b.Block("rec")
	b.Br(b.Binary(ir.OpLtI, n, two), base, rec)
	b.SetBlock(base)
	b.RetVal(n)
	b.SetBlock(rec)
	one := b.ConstI(1)
	a := b.Call(fib, b.Binary(ir.OpSubI, n, one))
	c := b.Call(fib, b.Binary(ir.OpSubI, n, two))
	b.RetVal(b.Binary(ir.OpAddI, a, c))

	mb := ir.NewBuilder(main)
	arg := mb.ConstI(12)
	mb.RetVal(mb.Call(fib, arg))
	p.NumberBranches(true)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := New(p).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != 144 {
		t.Fatalf("fib(12) = %d, want 144", got)
	}
}

func TestDepthLimit(t *testing.T) {
	p := ir.NewProgram()
	f := &ir.Func{Name: "main", RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder(f)
	b.RetVal(b.Call(f)) // infinite recursion
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m := New(p)
	m.MaxDepth = 100
	_, err := m.Run()
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
}

func TestChecksumIsOrderSensitive(t *testing.T) {
	mk := func(vals []int64) uint64 {
		p := ir.NewProgram()
		f := &ir.Func{Name: "main", RetType: ir.TVoid}
		if err := p.AddFunc(f); err != nil {
			t.Fatal(err)
		}
		b := ir.NewBuilder(f)
		for _, v := range vals {
			b.Print(b.ConstI(v))
		}
		b.Ret()
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		m := New(p)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if m.Prints != uint64(len(vals)) {
			t.Fatalf("prints = %d", m.Prints)
		}
		return m.Checksum
	}
	if mk([]int64{1, 2}) == mk([]int64{2, 1}) {
		t.Fatal("checksum must depend on order")
	}
	if mk([]int64{1, 2}) != mk([]int64{1, 2}) {
		t.Fatal("checksum must be deterministic")
	}
}

func TestFtoIRangeTrap(t *testing.T) {
	p := ir.NewProgram()
	f := &ir.Func{Name: "main", RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder(f)
	big := b.ConstF(1e300)
	b.RetVal(b.Unary(ir.OpFtoI, big))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(p).Run(); err == nil {
		t.Fatal("float->int overflow must trap")
	}
	for _, v := range []float64{1e300, -1e300, math.NaN()} {
		for _, viaGlobals := range []bool{true, false} {
			var re *RuntimeError
			if _, err := evalOp(t, ir.OpFtoI, fb(v), 0, viaGlobals); !errors.As(err, &re) {
				t.Fatalf("ftoi(%v) (globals=%v): want RuntimeError, got %v", v, viaGlobals, err)
			}
		}
	}
}

func TestMainMissing(t *testing.T) {
	p := ir.NewProgram()
	f := &ir.Func{Name: "notmain", RetType: ir.TVoid}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder(f)
	b.Ret()
	if _, err := New(p).Run(); err == nil {
		t.Fatal("want error for missing main")
	}
}
