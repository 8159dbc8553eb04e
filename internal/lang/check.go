package lang

import (
	"fmt"

	"repro/internal/ir"
)

// Symbol is one declared variable: a global, a parameter or a local.
// Check makes exactly one per declaration, and every use of the variable
// resolves to that pointer.
type Symbol struct {
	Name   string
	Type   ir.Type
	Global *VarDecl // nil for locals and parameters
	Slot   ir.Reg   // register slot, valid when Global == nil
	// Init is a global's folded initialiser as value bits, valid when
	// Global.Init != nil.
	Init int64
}

// Builtin enumerates the BL builtin functions.
type Builtin uint8

const (
	BuiltinNone Builtin = iota
	BuiltinPrint
	BuiltinSqrt
	BuiltinAbs
	BuiltinMin
	BuiltinMax
	BuiltinToInt   // int(x)
	BuiltinToFloat // float(x)
)

// CallTarget is the resolved callee of a CallExpr: either a builtin or a
// user function.
type CallTarget struct {
	Builtin Builtin
	Func    *FuncDecl
}

// Info carries the results of type checking, consumed by the lowering pass.
// Name resolution is recorded once: Defs holds the symbol each declaration
// makes and Uses the symbol each reference names, so lowering reads the
// resolution and never redoes it. The only types lowering reads, the
// operand types of unary, binary and builtin call expressions, Check
// records on those nodes (Operand).
type Info struct {
	// Defs maps each declaration, a global *VarDecl, a *Param or a
	// *LocalDecl, to the Symbol it declares.
	Defs map[any]*Symbol
	// Uses maps each reference, an *Ident, an *AssignStmt's target or an
	// *IndexExpr, to the Symbol of the declaration it names.
	Uses map[any]*Symbol
	// Calls resolves call targets.
	Calls map[*CallExpr]CallTarget
	// LocalSlots is the number of register slots (params + named locals)
	// each function needs before temporaries.
	LocalSlots map[*FuncDecl]int
	// Funcs indexes the function declarations by name.
	Funcs map[string]*FuncDecl
}

type checker struct {
	info *Info
	fn   *FuncDecl
	// globals is the outermost scope; arrays resolve only here.
	globals map[string]*Symbol
	// scopes is a stack of name→symbol maps for the current function.
	scopes []map[string]*Symbol
	slots  int
	loops  int
}

// Check resolves and type-checks a parsed file. It returns the first error
// found. Besides Info it records the operand types lowering reads on the
// file's unary, binary and call nodes, so a file is checked by one
// goroutine at a time.
func Check(file *File) (*Info, error) {
	info := &Info{
		Defs:       make(map[any]*Symbol),
		Uses:       make(map[any]*Symbol, file.exprs/2), // most references are operands
		Calls:      make(map[*CallExpr]CallTarget),
		LocalSlots: make(map[*FuncDecl]int),
		Funcs:      make(map[string]*FuncDecl),
	}
	c := &checker{info: info, globals: make(map[string]*Symbol)}
	// Pass 1: collect top-level names (so calls/uses may precede decls).
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *VarDecl:
			if _, dup := c.globals[d.Name]; dup {
				return nil, errf(d.Pos, "duplicate global %q", d.Name)
			}
			if _, dup := info.Funcs[d.Name]; dup {
				return nil, errf(d.Pos, "%q already declared as a function", d.Name)
			}
			if isReservedName(d.Name) {
				return nil, errf(d.Pos, "%q is a builtin name", d.Name)
			}
			sym := &Symbol{Name: d.Name, Type: d.Type, Global: d}
			c.globals[d.Name] = sym
			info.Defs[d] = sym
		case *FuncDecl:
			if _, dup := info.Funcs[d.Name]; dup {
				return nil, errf(d.Pos, "duplicate function %q", d.Name)
			}
			if _, dup := c.globals[d.Name]; dup {
				return nil, errf(d.Pos, "%q already declared as a global", d.Name)
			}
			if isReservedName(d.Name) {
				return nil, errf(d.Pos, "%q is a builtin name", d.Name)
			}
			info.Funcs[d.Name] = d
		}
	}
	// Pass 2: fold global initialisers (must be constant).
	for _, d := range file.Decls {
		g, ok := d.(*VarDecl)
		if !ok || g.Init == nil {
			continue
		}
		t, bits, err := constEval(g.Init)
		if err != nil {
			return nil, err
		}
		if t != g.Type {
			return nil, errf(g.Pos, "initialiser type %v does not match global %q of type %v", t, g.Name, g.Type)
		}
		info.Defs[g].Init = bits
	}
	// Pass 3: check function bodies.
	for _, d := range file.Decls {
		fd, ok := d.(*FuncDecl)
		if !ok {
			continue
		}
		if err := c.checkFunc(fd); err != nil {
			return nil, err
		}
	}
	return info, nil
}

func isReservedName(n string) bool {
	switch n {
	case "print", "sqrt", "abs", "min", "max", "int", "float", "bool":
		return true
	}
	return false
}

func (c *checker) checkFunc(fd *FuncDecl) error {
	c.fn = fd
	c.slots = 0
	c.loops = 0
	params := make(map[string]*Symbol, len(fd.Params))
	c.scopes = append(c.scopes[:0], c.globals, params)
	for i := range fd.Params {
		p := &fd.Params[i]
		if p.Type == ir.TVoid {
			return errf(p.Pos, "parameter %q has invalid type", p.Name)
		}
		if _, dup := params[p.Name]; dup {
			return errf(p.Pos, "duplicate parameter %q", p.Name)
		}
		sym := &Symbol{Name: p.Name, Type: p.Type, Slot: ir.Reg(c.slots)}
		c.slots++
		params[p.Name] = sym
		c.info.Defs[p] = sym
	}
	if err := c.checkBlock(fd.Body); err != nil {
		return err
	}
	c.info.LocalSlots[fd] = c.slots
	return nil
}

func (c *checker) push() { c.scopes = append(c.scopes, make(map[string]*Symbol)) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

// lookup resolves a name through the scope stack, innermost first; the
// globals are the outermost scope.
func (c *checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	return nil
}

// array resolves the global array an indexed reference names.
func (c *checker) array(pos Pos, name string) (*Symbol, error) {
	g := c.globals[name]
	if g == nil || g.Global.Len == 0 {
		return nil, errf(pos, "%q is not a global array", name)
	}
	return g, nil
}

func (c *checker) declareLocal(d *LocalDecl) error {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[d.Name]; dup {
		return errf(d.Pos, "%q redeclared in this scope", d.Name)
	}
	if isReservedName(d.Name) {
		return errf(d.Pos, "%q is a builtin name", d.Name)
	}
	s := &Symbol{Name: d.Name, Type: d.Type, Slot: ir.Reg(c.slots)}
	c.slots++
	top[d.Name] = s
	c.info.Defs[d] = s
	return nil
}

func (c *checker) checkBlock(b *BlockStmt) error {
	c.push()
	defer c.pop()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch s := s.(type) {
	case *BlockStmt:
		return c.checkBlock(s)
	case *LocalDecl:
		if s.Type == ir.TVoid {
			return errf(s.Pos, "local %q has invalid type", s.Name)
		}
		if s.Init != nil {
			t, err := c.checkExpr(s.Init)
			if err != nil {
				return err
			}
			if t != s.Type {
				return errf(s.Pos, "cannot initialise %v local %q with %v value", s.Type, s.Name, t)
			}
		}
		return c.declareLocal(s)
	case *AssignStmt:
		return c.checkAssign(s)
	case *IfStmt:
		if err := c.checkCond(s.Cond); err != nil {
			return err
		}
		if err := c.checkBlock(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return c.checkStmt(s.Else)
		}
		return nil
	case *WhileStmt:
		if err := c.checkCond(s.Cond); err != nil {
			return err
		}
		c.loops++
		defer func() { c.loops-- }()
		return c.checkBlock(s.Body)
	case *SwitchStmt:
		return c.checkSwitch(s)
	case *ForStmt:
		c.push()
		defer c.pop()
		if s.Init != nil {
			if err := c.checkStmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			if err := c.checkCond(s.Cond); err != nil {
				return err
			}
		}
		if s.Post != nil {
			if err := c.checkStmt(s.Post); err != nil {
				return err
			}
		}
		c.loops++
		defer func() { c.loops-- }()
		return c.checkBlock(s.Body)
	case *BreakStmt:
		if c.loops == 0 {
			return errf(s.Pos, "break outside loop")
		}
		return nil
	case *ContinueStmt:
		if c.loops == 0 {
			return errf(s.Pos, "continue outside loop")
		}
		return nil
	case *ReturnStmt:
		if c.fn.Ret == ir.TVoid {
			if s.Value != nil {
				return errf(s.Pos, "void function %q returns a value", c.fn.Name)
			}
			return nil
		}
		if s.Value == nil {
			return errf(s.Pos, "function %q must return %v", c.fn.Name, c.fn.Ret)
		}
		t, err := c.checkExpr(s.Value)
		if err != nil {
			return err
		}
		if t != c.fn.Ret {
			return errf(s.Pos, "cannot return %v from function %q returning %v", t, c.fn.Name, c.fn.Ret)
		}
		return nil
	case *ExprStmt:
		call, ok := s.X.(*CallExpr)
		if !ok {
			return errf(s.Pos, "expression statement must be a call")
		}
		_, err := c.checkCall(call, true)
		return err
	}
	return fmt.Errorf("lang: unknown statement %T", s)
}

// maxSwitchLabel bounds case labels: lowering builds a dense target table
// of size max(label)+1 (gaps dispatch to default), so an enormous label
// would balloon the IR. Interpreter-style workloads use small dense opcode
// spaces, far below this.
const maxSwitchLabel = 1023

func (c *checker) checkSwitch(s *SwitchStmt) error {
	t, err := c.checkExpr(s.Tag)
	if err != nil {
		return err
	}
	if t != ir.TInt {
		return errf(s.Tag.Position(), "switch tag must be int, got %v", t)
	}
	seen := make(map[int64]bool, len(s.Cases))
	for i := range s.Cases {
		cs := &s.Cases[i]
		if cs.Val < 0 || cs.Val > maxSwitchLabel {
			return errf(cs.Pos, "case label %d out of range [0, %d]", cs.Val, maxSwitchLabel)
		}
		if seen[cs.Val] {
			return errf(cs.Pos, "duplicate case label %d", cs.Val)
		}
		seen[cs.Val] = true
		if err := c.checkBlock(cs.Body); err != nil {
			return err
		}
	}
	if s.Default != nil {
		return c.checkBlock(s.Default)
	}
	return nil
}

func (c *checker) checkAssign(s *AssignStmt) error {
	vt, err := c.checkExpr(s.Value)
	if err != nil {
		return err
	}
	if s.Index != nil {
		g, err := c.array(s.Pos, s.Name)
		if err != nil {
			return err
		}
		it, err := c.checkExpr(s.Index)
		if err != nil {
			return err
		}
		if it != ir.TInt {
			return errf(s.Pos, "array index must be int, got %v", it)
		}
		if vt != g.Type {
			return errf(s.Pos, "cannot store %v into %v array %q", vt, g.Type, s.Name)
		}
		c.info.Uses[s] = g
		return nil
	}
	sym := c.lookup(s.Name)
	if sym == nil {
		return errf(s.Pos, "undefined variable %q", s.Name)
	}
	if sym.Global != nil && sym.Global.Len > 0 {
		return errf(s.Pos, "cannot assign whole array %q", s.Name)
	}
	if vt != sym.Type {
		return errf(s.Pos, "cannot assign %v to %v variable %q", vt, sym.Type, s.Name)
	}
	c.info.Uses[s] = sym
	return nil
}

func (c *checker) checkCond(e Expr) error {
	t, err := c.checkExpr(e)
	if err != nil {
		return err
	}
	if t != ir.TBool {
		return errf(e.Position(), "condition must be bool, got %v", t)
	}
	return nil
}

func (c *checker) checkExpr(e Expr) (ir.Type, error) {
	switch e := e.(type) {
	case *IntLit:
		return ir.TInt, nil
	case *FloatLit:
		return ir.TFloat, nil
	case *BoolLit:
		return ir.TBool, nil
	case *Ident:
		sym := c.lookup(e.Name)
		if sym == nil {
			return ir.TVoid, errf(e.Pos, "undefined variable %q", e.Name)
		}
		if sym.Global != nil && sym.Global.Len > 0 {
			return ir.TVoid, errf(e.Pos, "array %q used as scalar", e.Name)
		}
		c.info.Uses[e] = sym
		return sym.Type, nil
	case *IndexExpr:
		g, err := c.array(e.Pos, e.Name)
		if err != nil {
			return ir.TVoid, err
		}
		it, err := c.checkExpr(e.Index)
		if err != nil {
			return ir.TVoid, err
		}
		if it != ir.TInt {
			return ir.TVoid, errf(e.Pos, "array index must be int, got %v", it)
		}
		c.info.Uses[e] = g
		return g.Type, nil
	case *CallExpr:
		return c.checkCall(e, false)
	case *UnaryExpr:
		t, err := c.checkExpr(e.X)
		if err != nil {
			return ir.TVoid, err
		}
		e.Operand = t
		switch e.Op {
		case TokMinus:
			if t != ir.TInt && t != ir.TFloat {
				return ir.TVoid, errf(e.Pos, "operator - needs int or float, got %v", t)
			}
			return t, nil
		case TokNot:
			if t != ir.TBool {
				return ir.TVoid, errf(e.Pos, "operator ! needs bool, got %v", t)
			}
			return ir.TBool, nil
		}
		return ir.TVoid, errf(e.Pos, "unknown unary operator %v", e.Op)
	case *BinaryExpr:
		return c.checkBinary(e)
	}
	return ir.TVoid, fmt.Errorf("lang: unknown expression %T", e)
}

func (c *checker) checkBinary(e *BinaryExpr) (ir.Type, error) {
	xt, err := c.checkExpr(e.X)
	if err != nil {
		return ir.TVoid, err
	}
	yt, err := c.checkExpr(e.Y)
	if err != nil {
		return ir.TVoid, err
	}
	if xt != yt {
		return ir.TVoid, errf(e.Pos, "mismatched operand types %v and %v (no implicit conversion; use int()/float())", xt, yt)
	}
	e.Operand = xt
	switch e.Op {
	case TokPlus, TokMinus, TokStar, TokSlash:
		if xt != ir.TInt && xt != ir.TFloat {
			return ir.TVoid, errf(e.Pos, "operator %v needs int or float operands, got %v", e.Op, xt)
		}
		return xt, nil
	case TokPercent, TokAmp, TokPipe, TokCaret, TokShl, TokShr:
		if xt != ir.TInt {
			return ir.TVoid, errf(e.Pos, "operator %v needs int operands, got %v", e.Op, xt)
		}
		return ir.TInt, nil
	case TokEq, TokNe:
		if xt == ir.TVoid {
			return ir.TVoid, errf(e.Pos, "cannot compare %v values", xt)
		}
		return ir.TBool, nil
	case TokLt, TokLe, TokGt, TokGe:
		if xt != ir.TInt && xt != ir.TFloat {
			return ir.TVoid, errf(e.Pos, "operator %v needs int or float operands, got %v", e.Op, xt)
		}
		return ir.TBool, nil
	case TokAndAnd, TokOrOr:
		if xt != ir.TBool {
			return ir.TVoid, errf(e.Pos, "operator %v needs bool operands, got %v", e.Op, xt)
		}
		return ir.TBool, nil
	}
	return ir.TVoid, errf(e.Pos, "unknown binary operator %v", e.Op)
}

func (c *checker) checkCall(e *CallExpr, stmt bool) (ir.Type, error) {
	argTypes := make([]ir.Type, len(e.Args))
	for i, a := range e.Args {
		t, err := c.checkExpr(a)
		if err != nil {
			return ir.TVoid, err
		}
		argTypes[i] = t
	}
	want := func(n int) error {
		if len(e.Args) != n {
			return errf(e.Pos, "%s expects %d argument(s), got %d", e.Name, n, len(e.Args))
		}
		return nil
	}
	numeric := func(i int) error {
		if argTypes[i] != ir.TInt && argTypes[i] != ir.TFloat {
			return errf(e.Pos, "%s argument must be int or float, got %v", e.Name, argTypes[i])
		}
		return nil
	}
	var target CallTarget
	var t ir.Type
	switch e.Name {
	case "print":
		if err := want(1); err != nil {
			return ir.TVoid, err
		}
		if argTypes[0] == ir.TVoid {
			return ir.TVoid, errf(e.Pos, "cannot print void")
		}
		target.Builtin, t = BuiltinPrint, ir.TVoid
	case "sqrt":
		if err := want(1); err != nil {
			return ir.TVoid, err
		}
		if argTypes[0] != ir.TFloat {
			return ir.TVoid, errf(e.Pos, "sqrt needs a float argument, got %v", argTypes[0])
		}
		target.Builtin, t = BuiltinSqrt, ir.TFloat
	case "abs":
		if err := want(1); err != nil {
			return ir.TVoid, err
		}
		if err := numeric(0); err != nil {
			return ir.TVoid, err
		}
		target.Builtin, t = BuiltinAbs, argTypes[0]
	case "min", "max":
		if err := want(2); err != nil {
			return ir.TVoid, err
		}
		if err := numeric(0); err != nil {
			return ir.TVoid, err
		}
		if argTypes[0] != argTypes[1] {
			return ir.TVoid, errf(e.Pos, "%s arguments must have the same type", e.Name)
		}
		target.Builtin, t = BuiltinMin, argTypes[0]
		if e.Name == "max" {
			target.Builtin = BuiltinMax
		}
	case "int":
		if err := want(1); err != nil {
			return ir.TVoid, err
		}
		if argTypes[0] == ir.TVoid {
			return ir.TVoid, errf(e.Pos, "cannot convert void to int")
		}
		target.Builtin, t = BuiltinToInt, ir.TInt
	case "float":
		if err := want(1); err != nil {
			return ir.TVoid, err
		}
		if argTypes[0] != ir.TInt && argTypes[0] != ir.TFloat {
			return ir.TVoid, errf(e.Pos, "cannot convert %v to float", argTypes[0])
		}
		target.Builtin, t = BuiltinToFloat, ir.TFloat
	default:
		fd, ok := c.info.Funcs[e.Name]
		if !ok {
			return ir.TVoid, errf(e.Pos, "undefined function %q", e.Name)
		}
		if len(e.Args) != len(fd.Params) {
			return ir.TVoid, errf(e.Pos, "%s expects %d argument(s), got %d", e.Name, len(fd.Params), len(e.Args))
		}
		for i, pt := range fd.Params {
			if argTypes[i] != pt.Type {
				return ir.TVoid, errf(e.Pos, "argument %d of %s: have %v, want %v", i+1, e.Name, argTypes[i], pt.Type)
			}
		}
		if !stmt && fd.Ret == ir.TVoid {
			return ir.TVoid, errf(e.Pos, "void function %q used as a value", e.Name)
		}
		target.Func, t = fd, fd.Ret
	}
	if target.Func == nil {
		e.Operand = argTypes[0]
	}
	c.info.Calls[e] = target
	return t, nil
}

// constEval evaluates a constant expression for a global initialiser.
// Supported forms: literals and unary minus over literals.
func constEval(e Expr) (ir.Type, int64, error) {
	switch e := e.(type) {
	case *IntLit:
		return ir.TInt, e.Val, nil
	case *FloatLit:
		var in ir.Instr
		in.SetFloatImm(e.Val)
		return ir.TFloat, in.Imm, nil
	case *BoolLit:
		if e.Val {
			return ir.TBool, 1, nil
		}
		return ir.TBool, 0, nil
	case *UnaryExpr:
		if e.Op != TokMinus {
			return ir.TVoid, 0, errf(e.Pos, "global initialiser must be a constant")
		}
		t, v, err := constEval(e.X)
		if err != nil {
			return ir.TVoid, 0, err
		}
		switch t {
		case ir.TInt:
			return ir.TInt, -v, nil
		case ir.TFloat:
			var in ir.Instr
			in.Imm = v
			in.SetFloatImm(-in.FloatImm())
			return ir.TFloat, in.Imm, nil
		}
		return ir.TVoid, 0, errf(e.Pos, "cannot negate %v constant", t)
	}
	return ir.TVoid, 0, errf(e.Position(), "global initialiser must be a constant")
}
