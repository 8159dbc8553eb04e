// Package vm holds the execution conformance suite. It is a test-only
// package; the directory keeps the name of the compiled backend the suite
// was written for, so its test names stay stable.
package vm

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/trace"
)

// The conformance suite pins the execution plane (package exec, which the
// bench suite, the service and the krallperf mirrors run through) to the
// interpreter one opcode at a time: for every ir.Op it builds a minimal
// program exercising that op, checks the oracle value, and runs it through
// runBoth, which compares return value, error identity, all counters, trace
// bytes, and block counts between an exec.Machine configured by its setters
// and an interp.Machine configured by its fields. Each value case runs
// twice — once with operands loaded from globals, so the op reads run-time
// values, and once with constant operands. A coverage check at the bottom
// fails if an ir.Op is added without a conformance case.

func fb(f float64) int64 { return int64(math.Float64bits(f)) }

// opProg builds "main: return op(a, b)". With viaGlobals the operands load
// from mutable globals (Init-seeded); otherwise they are constants.
func opProg(t *testing.T, op ir.Op, a, b int64, viaGlobals bool) *ir.Program {
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
	p.NumberBranches(true)
	return p
}

type opCase struct {
	name string
	op   ir.Op
	a, b int64
	want int64
}

// opCases is the per-opcode value matrix. Every value-producing ir.Op
// appears at least once; edge cases (wrapping division, NaN comparisons,
// shift masking) ride along because they are exactly where an
// implementation would drift from Go's semantics.
var opCases = []opCase{
	{"mov", ir.OpMov, 42, 0, 42},
	{"addI", ir.OpAddI, 40, 2, 42},
	{"addIWrap", ir.OpAddI, math.MaxInt64, 1, math.MinInt64},
	{"subI", ir.OpSubI, 40, 2, 38},
	{"mulI", ir.OpMulI, -6, 7, -42},
	{"divI", ir.OpDivI, 42, 5, 8},
	{"divITrunc", ir.OpDivI, -7, 2, -3},
	{"divIWrap", ir.OpDivI, math.MinInt64, -1, math.MinInt64},
	{"modI", ir.OpModI, -7, 3, -1},
	{"modINegOne", ir.OpModI, math.MinInt64, -1, 0},
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
	{"divFZero", ir.OpDivF, fb(1), fb(0), fb(math.Inf(1))},
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
	{"nanEq", ir.OpEqF, fb(math.NaN()), fb(math.NaN()), 0},
	{"nanNe", ir.OpNeF, fb(math.NaN()), fb(math.NaN()), 1},
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
}

// TestOpConformance runs every opcode case on both the global-operand and
// the constant-operand path, checks the oracle value, and runs the program
// through the exec plane.
func TestOpConformance(t *testing.T) {
	for _, c := range opCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, viaGlobals := range []bool{true, false} {
				prog := opProg(t, c.op, c.a, c.b, viaGlobals)
				got, err := interp.New(prog).Run()
				if err != nil {
					t.Fatalf("interp oracle (globals=%v): %v", viaGlobals, err)
				}
				if got != c.want {
					t.Fatalf("%v(%d,%d) = %d, want %d (globals=%v)",
						c.op, c.a, c.b, got, c.want, viaGlobals)
				}
				runBoth(t, prog, 0, 0)
			}
		})
	}
}

// trapCases are the opcode executions that must fail, with identical
// *interp.RuntimeError text through exec and the interpreter.
var trapCases = []struct {
	name string
	op   ir.Op
	a, b int64
}{
	{"divZero", ir.OpDivI, 42, 0},
	{"modZero", ir.OpModI, 42, 0},
	{"ftoiNaN", ir.OpFtoI, fb(math.NaN()), 0},
	{"ftoiBig", ir.OpFtoI, fb(1e300), 0},
	{"ftoiNegBig", ir.OpFtoI, fb(-1e300), 0},
}

func TestTrapConformance(t *testing.T) {
	for _, c := range trapCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, viaGlobals := range []bool{true, false} {
				prog := opProg(t, c.op, c.a, c.b, viaGlobals)
				if _, err := interp.New(prog).Run(); err == nil {
					t.Fatalf("interp oracle did not trap (globals=%v)", viaGlobals)
				}
				runBoth(t, prog, 0, 0)
			}
		})
	}
}

// TestNopConstConformance covers OpNop, OpConstI, and OpConstF.
func TestNopConstConformance(t *testing.T) {
	p := ir.NewProgram()
	f := &ir.Func{Name: "main", RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	bd := ir.NewBuilder(f)
	f.Entry.Instrs = append(f.Entry.Instrs, ir.Instr{Op: ir.OpNop})
	ci := bd.ConstI(41)
	cf := bd.ConstF(1.0)
	bd.RetVal(bd.Binary(ir.OpAddI, ci, bd.Unary(ir.OpFtoI, cf)))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.NumberBranches(true)
	if got, err := interp.New(p).Run(); err != nil || got != 42 {
		t.Fatalf("oracle: %d, %v", got, err)
	}
	runBoth(t, p, 0, 0)
}

// TestGlobalConformance covers OpLoadG/OpStoreG plus the SetGlobal
// override, which the bench and service layers set through exec.
func TestGlobalConformance(t *testing.T) {
	p := ir.NewProgram()
	for _, g := range []*ir.Global{
		{Name: "x", Type: ir.TInt, Len: 1, Init: []int64{5}},
		{Name: "y", Type: ir.TInt, Len: 1},
	} {
		if err := p.AddGlobal(g); err != nil {
			t.Fatal(err)
		}
	}
	f := &ir.Func{Name: "main", RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	bd := ir.NewBuilder(f)
	x := bd.LoadG(p.Global("x"))
	bd.StoreG(p.Global("y"), bd.Binary(ir.OpMulI, x, x))
	bd.RetVal(bd.LoadG(p.Global("y")))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.NumberBranches(true)
	runBoth(t, p, 0, 0)

	im := interp.New(p)
	if err := im.SetGlobal("x", 7); err != nil {
		t.Fatal(err)
	}
	iret, err := im.Run()
	if err != nil {
		t.Fatal(err)
	}
	ep, err := exec.Interp.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	em := ep.NewMachine()
	if err := em.SetGlobal("x", 7); err != nil {
		t.Fatal(err)
	}
	eret, err := em.Run()
	if err != nil {
		t.Fatal(err)
	}
	if iret != 49 || eret != 49 {
		t.Fatalf("SetGlobal runs: interp=%d exec=%d, want 49", iret, eret)
	}
	if ig, err := im.GlobalValue("y"); err != nil || ig != 49 {
		t.Fatalf("GlobalValue: %d, %v, want 49", ig, err)
	}
}

// TestElemConformance covers OpLoadElem/OpStoreElem with runtime indices
// (a real loop, so the element ops execute with values no optimizer can
// predict) and the out-of-bounds traps on both sides of the range.
func TestElemConformance(t *testing.T) {
	runBoth(t, compileSrc(t, `
var a [8]int;

func main() int {
    for var i int = 0; i < 8; i = i + 1 {
        a[i] = i * 3;
    }
    var s int = 0;
    for var i int = 0; i < 8; i = i + 1 {
        s = s + a[i];
    }
    return s;
}`), 0, 0)

	for name, idx := range map[string]int64{"neg": -1, "past": 8} {
		idx := idx
		t.Run("load-"+name, func(t *testing.T) {
			runBoth(t, elemTrapProg(t, ir.OpLoadElem, idx), 0, 0)
		})
		t.Run("store-"+name, func(t *testing.T) {
			runBoth(t, elemTrapProg(t, ir.OpStoreElem, idx), 0, 0)
		})
	}
}

// elemTrapProg builds an element access whose index comes from a global so
// the bounds check happens at run time.
func elemTrapProg(t *testing.T, op ir.Op, idx int64) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	for _, g := range []*ir.Global{
		{Name: "a", Type: ir.TInt, Len: 8, Array: true},
		{Name: "gi", Type: ir.TInt, Len: 1, Init: []int64{idx}},
	} {
		if err := p.AddGlobal(g); err != nil {
			t.Fatal(err)
		}
	}
	f := &ir.Func{Name: "main", RetType: ir.TInt}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	bd := ir.NewBuilder(f)
	ri := bd.LoadG(p.Global("gi"))
	if op == ir.OpLoadElem {
		bd.RetVal(bd.LoadElem(p.Global("a"), ri))
	} else {
		bd.StoreElem(p.Global("a"), ri, ri)
		bd.RetVal(ri)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.NumberBranches(true)
	return p
}

// TestCallPrintConformance covers OpCall (value result, dropped result,
// argument passing) and OpPrint (checksum and print counters), plus the
// depth limit: unbounded recursion must hit ErrLimit identically.
func TestCallPrintConformance(t *testing.T) {
	runBoth(t, compileSrc(t, `
func emit(x int) {
    print(x);
}

func add3(a int, b int, c int) int {
    return a + b + c;
}

func main() int {
    emit(7);
    emit(add3(1, 2, 3));
    var s int = 0;
    for var i int = 0; i < 10; i = i + 1 {
        s = s + add3(i, i * 2, 1);
    }
    print(s);
    return s;
}`), 0, 0)

	t.Run("depth-limit", func(t *testing.T) {
		runBoth(t, compileSrc(t, `
func down(n int) int {
    return down(n + 1);
}

func main() int {
    return down(0);
}`), 0, 0)
	})
}

// TestBranchConformance covers a branch on a value that is not a
// comparison and prediction scoring in both directions.
func TestBranchConformance(t *testing.T) {
	prog := compileSrc(t, `
var bits int = 6;

func main() int {
    var n int = 0;
    for var i int = 0; i < 16; i = i + 1 {
        if (bits / (i + 1)) % 2 != 0 {
            n = n + 1;
        }
    }
    return n;
}`)
	for _, pred := range []ir.Prediction{ir.PredNone, ir.PredTaken, ir.PredNotTaken} {
		for _, f := range prog.Funcs {
			for _, b := range f.Blocks {
				if b.Term.Op == ir.TermBr {
					b.Term.Pred = pred
				}
			}
		}
		runBoth(t, prog, 0, 0)
	}
}

// TestConformanceCoversEveryOp fails when an ir.Op has no conformance
// coverage, so the suite cannot silently fall behind the instruction set.
func TestConformanceCoversEveryOp(t *testing.T) {
	covered := map[ir.Op]bool{
		// Exercised by the dedicated structural tests above.
		ir.OpNop: true, ir.OpConstI: true, ir.OpConstF: true,
		ir.OpLoadG: true, ir.OpStoreG: true,
		ir.OpLoadElem: true, ir.OpStoreElem: true,
		ir.OpCall: true, ir.OpPrint: true,
	}
	for _, c := range opCases {
		covered[c.op] = true
	}
	for _, c := range trapCases {
		covered[c.op] = true
	}
	for op := ir.Op(1); op.Valid(); op++ {
		if !covered[op] {
			t.Errorf("ir.Op %v has no conformance case", op)
		}
	}
}

// runBoth executes prog through the exec plane and on the interpreter
// directly, under identical limits, and fails unless every observable
// matches: return value, error identity, all six counters, the encoded
// branch trace, and the per-block execution counts.
func runBoth(t *testing.T, prog *ir.Program, maxBranches, maxSteps uint64) {
	t.Helper()

	im := interp.New(prog)
	im.MaxBranches = maxBranches
	im.MaxSteps = maxSteps
	im.EnableBlockCounts()
	is := trace.NewSlab(0)
	im.Rec = is
	iret, ierr := im.Run()
	is.Seal()

	ep, err := exec.Interp.Compile(prog)
	if err != nil {
		t.Fatalf("exec.Interp.Compile: %v", err)
	}
	em := ep.NewMachine()
	em.SetMaxBranches(maxBranches)
	em.SetMaxSteps(maxSteps)
	em.EnableBlockCounts()
	es := trace.NewSlab(0)
	em.SetRec(es)
	eret, eerr := em.Run()
	es.Seal()

	if (ierr == nil) != (eerr == nil) {
		t.Fatalf("error mismatch: interp=%v exec=%v", ierr, eerr)
	}
	if ierr != nil {
		sentinel := false
		for _, s := range []error{interp.ErrLimit, interp.ErrNoMain, interp.ErrMainParams} {
			if errors.Is(ierr, s) != errors.Is(eerr, s) {
				t.Fatalf("error identity mismatch on %v: interp=%v exec=%v", s, ierr, eerr)
			}
			sentinel = sentinel || errors.Is(ierr, s)
		}
		if !sentinel && ierr.Error() != eerr.Error() {
			t.Fatalf("trap mismatch:\ninterp: %v\nexec:   %v", ierr, eerr)
		}
	} else if iret != eret {
		t.Fatalf("return mismatch: interp=%d exec=%d", iret, eret)
	}

	ic := exec.Counters{
		Steps: im.Steps, Branches: im.Branches,
		Predicted: im.Predicted, Mispredicted: im.Mispredicted,
		Checksum: im.Checksum, Prints: im.Prints,
	}
	if ec := em.Counters(); ic != ec {
		t.Errorf("counters: interp=%+v exec=%+v", ic, ec)
	}

	var ibuf, ebuf bytes.Buffer
	if _, err := is.WriteTo(&ibuf); err != nil {
		t.Fatalf("interp slab: %v", err)
	}
	if _, err := es.WriteTo(&ebuf); err != nil {
		t.Fatalf("exec slab: %v", err)
	}
	if !bytes.Equal(ibuf.Bytes(), ebuf.Bytes()) {
		t.Errorf("trace bytes differ: interp=%d bytes (%d events), exec=%d bytes (%d events)",
			ibuf.Len(), is.Len(), ebuf.Len(), es.Len())
	}

	ib, eb := im.BlockCounts(), em.BlockCounts()
	if len(ib) != len(eb) {
		t.Fatalf("block count shape: interp=%d funcs exec=%d funcs", len(ib), len(eb))
	}
	for fi := range ib {
		if len(ib[fi]) != len(eb[fi]) {
			t.Errorf("func %d block count shape: interp=%d exec=%d", fi, len(ib[fi]), len(eb[fi]))
			continue
		}
		for bi := range ib[fi] {
			if ib[fi][bi] != eb[fi][bi] {
				t.Errorf("func %d block %d count: interp=%d exec=%d", fi, bi, ib[fi][bi], eb[fi][bi])
			}
		}
	}
}

func compileSrc(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("lang.Compile: %v", err)
	}
	prog.NumberBranches(true)
	return prog
}
