package interp

import (
	"math"
	"testing"

	"repro/internal/ir"
)

// evalOp builds and runs "return op(a, b)" with raw bit inputs. With
// viaGlobals the operands load from Init-seeded globals, so the op reads
// run-time values; otherwise they are constants.
func evalOp(t *testing.T, op ir.Op, a, b int64, viaGlobals bool) (int64, error) {
	t.Helper()
	p := ir.NewProgram()
	f := &ir.Func{Name: "main", RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	bd := ir.NewBuilder(f)
	var ra, rb ir.Reg
	if viaGlobals {
		for _, g := range []*ir.Global{
			{Name: "ga", Type: ir.TInt, Len: 1, Init: []int64{a}},
			{Name: "gb", Type: ir.TInt, Len: 1, Init: []int64{b}},
		} {
			if err := p.AddGlobal(g); err != nil {
				t.Fatal(err)
			}
		}
		ra, rb = bd.LoadG(p.Global("ga")), bd.LoadG(p.Global("gb"))
	} else {
		ra, rb = bd.ConstI(a), bd.ConstI(b)
	}
	var res ir.Reg
	if op.NumSrc() == 2 {
		res = bd.Binary(op, ra, rb)
	} else {
		res = bd.Unary(op, ra)
	}
	bd.RetVal(res)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return New(p).Run()
}

func fb(f float64) int64 { return int64(math.Float64bits(f)) }
func bf(b int64) float64 { return math.Float64frombits(uint64(b)) }

// opCases is the per-opcode oracle matrix: every value-producing ir.Op
// appears at least once, with the edge cases (wrapping arithmetic and
// division, shift masking, NaN comparisons) where an implementation is
// most likely to drift from Go's semantics.
var opCases = []struct {
	name string
	op   ir.Op
	a, b int64
	want int64
}{
	{"mov", ir.OpMov, 42, 0, 42},
	{"addI", ir.OpAddI, 40, 2, 42},
	{"addIWrap", ir.OpAddI, math.MaxInt64, 1, math.MinInt64},
	{"subI", ir.OpSubI, 40, 2, 38},
	{"mulI", ir.OpMulI, -6, 7, -42},
	{"divI", ir.OpDivI, 42, 5, 8},
	{"andI", ir.OpAndI, 0b1100, 0b1010, 0b1000},
	{"orI", ir.OpOrI, 0b1100, 0b1010, 0b1110},
	{"xorI", ir.OpXorI, 0b1100, 0b1010, 0b0110},
	{"shlI", ir.OpShlI, 1, 4, 16},
	{"shlIMask", ir.OpShlI, 1, 64, 1},
	{"shrI", ir.OpShrI, -16, 2, -4},
	{"shrIMask", ir.OpShrI, -16, 66, -4},
	{"negI", ir.OpNegI, 7, 0, -7},
	{"notI0", ir.OpNotI, 0, 0, 1},
	{"notI1", ir.OpNotI, 5, 0, 0},
	{"addF", ir.OpAddF, fb(1.5), fb(2.25), fb(3.75)},
	{"subF", ir.OpSubF, fb(5), fb(1.5), fb(3.5)},
	{"mulF", ir.OpMulF, fb(3), fb(0.5), fb(1.5)},
	{"divF", ir.OpDivF, fb(1), fb(4), fb(0.25)},
	{"divFzero", ir.OpDivF, fb(1), fb(0), fb(math.Inf(1))},
	{"negF", ir.OpNegF, fb(2.5), 0, fb(-2.5)},
	{"eqI", ir.OpEqI, 3, 3, 1},
	{"neI", ir.OpNeI, 3, 3, 0},
	{"ltI", ir.OpLtI, -1, 0, 1},
	{"leI", ir.OpLeI, 0, 0, 1},
	{"gtI", ir.OpGtI, 1, 2, 0},
	{"geI", ir.OpGeI, 2, 2, 1},
	{"eqF", ir.OpEqF, fb(1.5), fb(1.5), 1},
	{"neF", ir.OpNeF, fb(1.5), fb(2.5), 1},
	{"ltF", ir.OpLtF, fb(-3), fb(1), 1},
	{"leF", ir.OpLeF, fb(1), fb(1), 1},
	{"gtF", ir.OpGtF, fb(2), fb(1), 1},
	{"geF", ir.OpGeF, fb(0.5), fb(1), 0},
	{"nanNe", ir.OpNeF, fb(math.NaN()), fb(math.NaN()), 1},
	{"nanEq", ir.OpEqF, fb(math.NaN()), fb(math.NaN()), 0},
	{"nanLt", ir.OpLtF, fb(math.NaN()), fb(1), 0},
	{"itof", ir.OpItoF, -9, 0, fb(-9)},
	{"ftoi", ir.OpFtoI, fb(3.99), 0, 3},
	{"ftoiNeg", ir.OpFtoI, fb(-3.99), 0, -3},
	{"sqrtF", ir.OpSqrtF, fb(9), 0, fb(3)},
	{"sqrtFNeg", ir.OpSqrtF, fb(-1), 0, fb(math.Sqrt(-1))},
	{"absI", ir.OpAbsI, -5, 0, 5},
	{"absIPos", ir.OpAbsI, 5, 0, 5},
	{"absF", ir.OpAbsF, fb(-1.25), 0, fb(1.25)},
	{"minI", ir.OpMinI, 3, -2, -2},
	{"maxI", ir.OpMaxI, 3, -2, 3},
	{"minF", ir.OpMinF, fb(1), fb(2), fb(1)},
	{"maxF", ir.OpMaxF, fb(1), fb(2), fb(2)},
	{"divWrap", ir.OpDivI, math.MinInt64, -1, math.MinInt64},
	{"modNegOne", ir.OpModI, math.MinInt64, -1, 0},
	{"modSign", ir.OpModI, -7, 3, -1},
	{"divTrunc", ir.OpDivI, -7, 2, -3},
}

// TestFullOpMatrix checks every opCases row on both operand paths.
func TestFullOpMatrix(t *testing.T) {
	for _, c := range opCases {
		t.Run(c.name, func(t *testing.T) {
			for _, viaGlobals := range []bool{true, false} {
				got, err := evalOp(t, c.op, c.a, c.b, viaGlobals)
				if err != nil {
					t.Fatalf("%v (globals=%v): %v", c.op, viaGlobals, err)
				}
				if got != c.want {
					t.Fatalf("%v(%d,%d) = %d (%v), want %d (%v) (globals=%v)",
						c.op, c.a, c.b, got, bf(got), c.want, bf(c.want), viaGlobals)
				}
			}
		})
	}
}

// TestConformanceCoversEveryOp fails when an ir.Op has no oracle case, so
// the op tests cannot silently fall behind the instruction set.
func TestConformanceCoversEveryOp(t *testing.T) {
	covered := map[ir.Op]bool{
		// Exercised by the structural tests: TestNopAndStoreGlobal,
		// TestFloatOps, TestStoreElemAndBounds, TestCallsAndRecursion and
		// TestChecksumIsOrderSensitive.
		ir.OpNop: true, ir.OpConstI: true, ir.OpConstF: true,
		ir.OpLoadG: true, ir.OpStoreG: true,
		ir.OpLoadElem: true, ir.OpStoreElem: true,
		ir.OpCall: true, ir.OpPrint: true,
	}
	for _, c := range opCases {
		covered[c.op] = true
	}
	for op := ir.Op(1); op.Valid(); op++ {
		if !covered[op] {
			t.Errorf("ir.Op %v has no oracle case", op)
		}
	}
}

func TestNopAndStoreGlobal(t *testing.T) {
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "g", Type: ir.TInt, Len: 1}); err != nil {
		t.Fatal(err)
	}
	f := &ir.Func{Name: "main", RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder(f)
	f.Entry.Instrs = append(f.Entry.Instrs, ir.Instr{Op: ir.OpNop})
	v := b.ConstI(11)
	b.StoreG(p.Global("g"), v)
	b.RetVal(b.LoadG(p.Global("g")))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m := New(p)
	got, err := m.Run()
	if err != nil || got != 11 {
		t.Fatalf("got %d, %v", got, err)
	}
	if gv, err := m.GlobalValue("g"); err != nil || gv != 11 {
		t.Fatalf("GlobalValue = %d, %v", gv, err)
	}
}

func TestGlobalAccessors(t *testing.T) {
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "x", Type: ir.TFloat, Len: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddGlobal(&ir.Global{Name: "a", Type: ir.TInt, Len: 4, Array: true}); err != nil {
		t.Fatal(err)
	}
	f := &ir.Func{Name: "main", RetType: ir.TVoid}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	ir.NewBuilder(f).Ret()
	m := New(p)
	if err := m.SetGlobalFloat("x", 2.5); err != nil {
		t.Fatal(err)
	}
	v, err := m.GlobalValue("x")
	if err != nil || math.Float64frombits(uint64(v)) != 2.5 {
		t.Fatalf("float global round trip failed: %v %v", v, err)
	}
	if err := m.SetGlobal("a", 1); err == nil {
		t.Fatal("setting an array as scalar must fail")
	}
	if _, err := m.GlobalValue("a"); err == nil {
		t.Fatal("reading an array as scalar must fail")
	}
	if err := m.SetGlobal("missing", 1); err == nil {
		t.Fatal("unknown global must fail")
	}
	if _, err := m.GlobalValue("missing"); err == nil {
		t.Fatal("unknown global must fail")
	}
}

func TestStoreElemAndBounds(t *testing.T) {
	p := ir.NewProgram()
	if err := p.AddGlobal(&ir.Global{Name: "a", Type: ir.TInt, Len: 3, Array: true}); err != nil {
		t.Fatal(err)
	}
	f := &ir.Func{Name: "main", RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder(f)
	idx := b.ConstI(2)
	val := b.ConstI(99)
	b.StoreElem(p.Global("a"), idx, val)
	b.RetVal(b.LoadElem(p.Global("a"), idx))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := New(p).Run()
	if err != nil || got != 99 {
		t.Fatalf("round trip: %d, %v", got, err)
	}
	// Negative index store must trap.
	p2 := ir.NewProgram()
	if err := p2.AddGlobal(&ir.Global{Name: "a", Type: ir.TInt, Len: 3, Array: true}); err != nil {
		t.Fatal(err)
	}
	f2 := &ir.Func{Name: "main", RetType: ir.TVoid}
	if err := p2.AddFunc(f2); err != nil {
		t.Fatal(err)
	}
	b2 := ir.NewBuilder(f2)
	nidx := b2.ConstI(-1)
	b2.StoreElem(p2.Global("a"), nidx, nidx)
	b2.Ret()
	if err := p2.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(p2).Run(); err == nil {
		t.Fatal("negative store index must trap")
	}
}

func TestRuntimeErrorText(t *testing.T) {
	e := &RuntimeError{Func: "f", Block: "b3", Msg: "boom"}
	if e.Error() != "interp: boom in f at b3" {
		t.Fatalf("error text: %q", e.Error())
	}
}

func TestMainWithParamsRejected(t *testing.T) {
	p := ir.NewProgram()
	f := &ir.Func{Name: "main", NParams: 1, NRegs: 1, RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder(f)
	b.RetVal(0)
	if _, err := New(p).Run(); err == nil {
		t.Fatal("main with params must be rejected")
	}
	// Call with wrong arity must be rejected too.
	if _, err := New(p).Call(f); err == nil {
		t.Fatal("wrong arity call must fail")
	}
}
