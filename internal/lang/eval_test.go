package lang_test

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/lang"
)

// refEval is the reference evaluator: it runs a checked BL file straight
// from its AST, so the differential fuzz target can hold lowering and the
// interpreter to what the source says. It shares the parser and the
// checker's verdict with the code under test, but nothing else: it reads
// no field of lang.Info, resolves every name with its own scope stack and
// carries each value's type with it. Its rules are the interpreter's:
// int64 arithmetic wraps, MinInt64 / -1 is MinInt64, x % -1 is 0, shift
// counts are masked to 63, division and modulo by zero, float-to-int out
// of range and out-of-bounds indexes trap, && and || short-circuit,
// operands and arguments evaluate left to right, locals start at zero and
// switch cases never fall through.
type refEval struct {
	funcs   map[string]*lang.FuncDecl
	globals map[string]*refGlobal

	// maxSteps bounds evaluated statements plus expressions, maxDepth the
	// call depth (main is depth 0); reaching either stops the run with
	// errEvalBound.
	maxSteps, steps uint64
	maxDepth, depth int

	// Checksum and Prints follow the interpreter's OpPrint accounting.
	Checksum uint64
	Prints   uint64
}

type refGlobal struct {
	typ   ir.Type
	array bool
	vals  []int64
}

// refVal is an evaluated value: its type and its bits, encoded as the
// interpreter encodes them (floats as IEEE bits, bools as 0 or 1).
type refVal struct {
	typ  ir.Type
	bits int64
}

// refVar is one local or parameter in a frame's scope stack.
type refVar struct{ v refVal }

// evalTrap is a run-time trap, with the interpreter's message.
type evalTrap struct{ msg string }

func (e *evalTrap) Error() string { return "eval: " + e.msg }

// errEvalBound reports that the run reached maxSteps or maxDepth.
var errEvalBound = errors.New("eval: step or depth bound reached")

// ctl is how a statement ends.
type ctl uint8

const (
	ctlNext ctl = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

// frame is one call's scope stack; ret holds a returned value.
type frame struct {
	scopes []map[string]*refVar
	ret    refVal
}

func newRefEval(file *lang.File, maxSteps uint64, maxDepth int) *refEval {
	e := &refEval{
		funcs:    make(map[string]*lang.FuncDecl),
		globals:  make(map[string]*refGlobal),
		maxSteps: maxSteps,
		maxDepth: maxDepth,
	}
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *lang.FuncDecl:
			e.funcs[d.Name] = d
		case *lang.VarDecl:
			g := &refGlobal{typ: d.Type, array: d.Len > 0, vals: make([]int64, max(d.Len, 1))}
			if d.Init != nil {
				g.vals[0] = e.constant(d.Init).bits
			}
			e.globals[d.Name] = g
		}
	}
	return e
}

// constant evaluates a global initialiser, which the checker has already
// held to a literal or a negated literal.
func (e *refEval) constant(x lang.Expr) refVal {
	var fr frame
	return e.expr(&fr, x)
}

// setGlobal overrides a scalar global, as interp.Machine.SetGlobal does.
func (e *refEval) setGlobal(name string, v int64) error {
	g := e.globals[name]
	if g == nil || g.array {
		return fmt.Errorf("eval: no scalar global %q", name)
	}
	g.vals[0] = v
	return nil
}

// Run evaluates main and returns its value's bits: 0 for a void main.
// The error is an *evalTrap, errEvalBound, or a missing or
// parameterised main.
func (e *refEval) Run() (ret int64, err error) {
	main := e.funcs["main"]
	if main == nil || len(main.Params) != 0 {
		return 0, errors.New("eval: no main taking no parameters")
	}
	defer func() {
		if r := recover(); r != nil {
			stop, ok := r.(error)
			if !ok {
				panic(r)
			}
			ret, err = 0, stop
		}
	}()
	return e.call(main, nil).bits, nil
}

func (e *refEval) step() {
	e.steps++
	if e.steps > e.maxSteps {
		panic(errEvalBound)
	}
}

func trapf(format string, args ...any) {
	panic(&evalTrap{msg: fmt.Sprintf(format, args...)})
}

func (e *refEval) call(fd *lang.FuncDecl, args []refVal) refVal {
	if e.depth > e.maxDepth {
		panic(errEvalBound)
	}
	e.depth++
	defer func() { e.depth-- }()
	fr := &frame{scopes: []map[string]*refVar{{}}}
	for i, p := range fd.Params {
		fr.scopes[0][p.Name] = &refVar{v: args[i]}
	}
	if e.block(fr, fd.Body) == ctlReturn {
		return fr.ret
	}
	return refVal{typ: fd.Ret} // falling off the end returns the zero value
}

// lookup finds a scalar variable: the innermost local, else the global.
func (e *refEval) lookup(fr *frame, name string) *refVal {
	for i := len(fr.scopes) - 1; i >= 0; i-- {
		if v, ok := fr.scopes[i][name]; ok {
			return &v.v
		}
	}
	g := e.globals[name]
	return &refVal{typ: g.typ, bits: g.vals[0]}
}

// store writes a scalar variable: the innermost local, else the global.
func (e *refEval) store(fr *frame, name string, v refVal) {
	for i := len(fr.scopes) - 1; i >= 0; i-- {
		if lv, ok := fr.scopes[i][name]; ok {
			lv.v = v
			return
		}
	}
	e.globals[name].vals[0] = v.bits
}

// element bounds-checks an index into global array name.
func (e *refEval) element(name string, idx int64) (*refGlobal, int64) {
	g := e.globals[name]
	if idx < 0 || idx >= int64(len(g.vals)) {
		trapf("index %d out of range [0,%d) in %s", idx, len(g.vals), name)
	}
	return g, idx
}

func (e *refEval) block(fr *frame, b *lang.BlockStmt) ctl {
	fr.scopes = append(fr.scopes, map[string]*refVar{})
	defer func() { fr.scopes = fr.scopes[:len(fr.scopes)-1] }()
	for _, s := range b.Stmts {
		if c := e.stmt(fr, s); c != ctlNext {
			return c
		}
	}
	return ctlNext
}

func (e *refEval) stmt(fr *frame, s lang.Stmt) ctl {
	e.step()
	switch s := s.(type) {
	case *lang.BlockStmt:
		return e.block(fr, s)
	case *lang.LocalDecl:
		v := refVal{typ: s.Type}
		if s.Init != nil {
			v = e.expr(fr, s.Init) // before the name is in scope
		}
		fr.scopes[len(fr.scopes)-1][s.Name] = &refVar{v: v}
	case *lang.AssignStmt:
		if s.Index == nil {
			e.store(fr, s.Name, e.expr(fr, s.Value))
			return ctlNext
		}
		idx := e.expr(fr, s.Index).bits
		v := e.expr(fr, s.Value)
		g, i := e.element(s.Name, idx)
		g.vals[i] = v.bits
	case *lang.IfStmt:
		if e.cond(fr, s.Cond) {
			return e.block(fr, s.Then)
		} else if s.Else != nil {
			return e.stmt(fr, s.Else)
		}
	case *lang.WhileStmt:
		for e.cond(fr, s.Cond) {
			if c := e.block(fr, s.Body); c == ctlBreak {
				break
			} else if c == ctlReturn {
				return c
			}
		}
	case *lang.ForStmt:
		fr.scopes = append(fr.scopes, map[string]*refVar{})
		defer func() { fr.scopes = fr.scopes[:len(fr.scopes)-1] }()
		if s.Init != nil {
			e.stmt(fr, s.Init)
		}
		for s.Cond == nil || e.cond(fr, s.Cond) {
			if c := e.block(fr, s.Body); c == ctlBreak {
				break
			} else if c == ctlReturn {
				return c
			}
			if s.Post != nil {
				e.stmt(fr, s.Post)
			}
		}
	case *lang.SwitchStmt:
		tag := e.expr(fr, s.Tag).bits
		for _, cs := range s.Cases {
			if cs.Val == tag {
				return e.block(fr, cs.Body)
			}
		}
		if s.Default != nil {
			return e.block(fr, s.Default)
		}
	case *lang.BreakStmt:
		return ctlBreak
	case *lang.ContinueStmt:
		return ctlContinue
	case *lang.ReturnStmt:
		fr.ret = refVal{}
		if s.Value != nil {
			fr.ret = e.expr(fr, s.Value)
		}
		return ctlReturn
	case *lang.ExprStmt:
		e.expr(fr, s.X)
	default:
		panic(fmt.Sprintf("eval: unknown statement %T", s))
	}
	return ctlNext
}

func (e *refEval) cond(fr *frame, x lang.Expr) bool { return e.expr(fr, x).bits != 0 }

func boolVal(b bool) refVal {
	if b {
		return refVal{ir.TBool, 1}
	}
	return refVal{ir.TBool, 0}
}

func fval(f float64) refVal     { return refVal{ir.TFloat, int64(math.Float64bits(f))} }
func (v refVal) float() float64 { return math.Float64frombits(uint64(v.bits)) }

func (e *refEval) expr(fr *frame, x lang.Expr) refVal {
	e.step()
	switch x := x.(type) {
	case *lang.IntLit:
		return refVal{ir.TInt, x.Val}
	case *lang.FloatLit:
		return fval(x.Val)
	case *lang.BoolLit:
		return boolVal(x.Val)
	case *lang.Ident:
		return *e.lookup(fr, x.Name)
	case *lang.IndexExpr:
		g, i := e.element(x.Name, e.expr(fr, x.Index).bits)
		return refVal{g.typ, g.vals[i]}
	case *lang.UnaryExpr:
		v := e.expr(fr, x.X)
		switch {
		case x.Op == lang.TokNot:
			return boolVal(v.bits == 0)
		case v.typ == ir.TFloat:
			return fval(-v.float())
		default:
			return refVal{ir.TInt, -v.bits}
		}
	case *lang.BinaryExpr:
		switch x.Op {
		case lang.TokAndAnd:
			return boolVal(e.cond(fr, x.X) && e.cond(fr, x.Y))
		case lang.TokOrOr:
			return boolVal(e.cond(fr, x.X) || e.cond(fr, x.Y))
		}
		a := e.expr(fr, x.X)
		b := e.expr(fr, x.Y)
		if a.typ == ir.TFloat {
			return floatBinary(x.Op, a.float(), b.float())
		}
		return intBinary(x.Op, a, b)
	case *lang.CallExpr:
		args := make([]refVal, len(x.Args))
		for i, a := range x.Args {
			args[i] = e.expr(fr, a)
		}
		return e.callExpr(x.Name, args)
	}
	panic(fmt.Sprintf("eval: unknown expression %T", x))
}

// intBinary applies a non-short-circuit operator to int or bool operands.
func intBinary(op lang.TokKind, a, b refVal) refVal {
	x, y := a.bits, b.bits
	switch op {
	case lang.TokPlus:
		return refVal{ir.TInt, x + y}
	case lang.TokMinus:
		return refVal{ir.TInt, x - y}
	case lang.TokStar:
		return refVal{ir.TInt, x * y}
	case lang.TokSlash:
		switch {
		case y == 0:
			trapf("integer division by zero")
		case y == -1:
			return refVal{ir.TInt, -x} // wraps: MinInt64 / -1 is MinInt64
		}
		return refVal{ir.TInt, x / y}
	case lang.TokPercent:
		switch {
		case y == 0:
			trapf("integer modulo by zero")
		case y == -1:
			return refVal{ir.TInt, 0}
		}
		return refVal{ir.TInt, x % y}
	case lang.TokAmp:
		return refVal{ir.TInt, x & y}
	case lang.TokPipe:
		return refVal{ir.TInt, x | y}
	case lang.TokCaret:
		return refVal{ir.TInt, x ^ y}
	case lang.TokShl:
		return refVal{ir.TInt, x << (uint64(y) & 63)}
	case lang.TokShr:
		return refVal{ir.TInt, x >> (uint64(y) & 63)}
	case lang.TokEq:
		return boolVal(x == y)
	case lang.TokNe:
		return boolVal(x != y)
	case lang.TokLt:
		return boolVal(x < y)
	case lang.TokLe:
		return boolVal(x <= y)
	case lang.TokGt:
		return boolVal(x > y)
	case lang.TokGe:
		return boolVal(x >= y)
	}
	panic(fmt.Sprintf("eval: int operator %v", op))
}

func floatBinary(op lang.TokKind, x, y float64) refVal {
	switch op {
	case lang.TokPlus:
		return fval(x + y)
	case lang.TokMinus:
		return fval(x - y)
	case lang.TokStar:
		return fval(x * y)
	case lang.TokSlash:
		return fval(x / y)
	case lang.TokEq:
		return boolVal(x == y)
	case lang.TokNe:
		return boolVal(x != y)
	case lang.TokLt:
		return boolVal(x < y)
	case lang.TokLe:
		return boolVal(x <= y)
	case lang.TokGt:
		return boolVal(x > y)
	case lang.TokGe:
		return boolVal(x >= y)
	}
	panic(fmt.Sprintf("eval: float operator %v", op))
}

// callExpr calls a builtin, by name as the checker resolves them, or a
// user function.
func (e *refEval) callExpr(name string, args []refVal) refVal {
	switch name {
	case "print":
		e.Checksum = e.Checksum*1099511628211 + uint64(args[0].bits)
		e.Prints++
		return refVal{}
	case "sqrt":
		return fval(math.Sqrt(args[0].float()))
	case "abs":
		if args[0].typ == ir.TFloat {
			return fval(math.Abs(args[0].float()))
		}
		if args[0].bits < 0 {
			return refVal{ir.TInt, -args[0].bits}
		}
		return args[0]
	case "min", "max":
		a, b := args[0], args[1]
		if a.typ == ir.TFloat {
			if name == "min" {
				return fval(math.Min(a.float(), b.float()))
			}
			return fval(math.Max(a.float(), b.float()))
		}
		if (name == "min") == (b.bits < a.bits) {
			return b
		}
		return a
	case "int":
		if args[0].typ != ir.TFloat {
			return refVal{ir.TInt, args[0].bits}
		}
		f := args[0].float()
		if math.IsNaN(f) || f > math.MaxInt64 || f < math.MinInt64 {
			trapf("float to int conversion out of range")
		}
		return refVal{ir.TInt, int64(f)}
	case "float":
		if args[0].typ == ir.TFloat {
			return args[0]
		}
		return fval(float64(args[0].bits))
	}
	return e.call(e.funcs[name], args)
}
