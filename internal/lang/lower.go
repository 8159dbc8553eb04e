package lang

import (
	"fmt"

	"repro/internal/ir"
)

// Compile parses, checks, and lowers a BL source file into an IR program
// with branch sites numbered. This is the front door used by the harness,
// the CLI tools, and the examples.
func Compile(src string) (*ir.Program, error) {
	file, err := Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := Check(file)
	if err != nil {
		return nil, err
	}
	prog, err := Lower(file, info)
	if err != nil {
		return nil, err
	}
	prog.NumberBranches(true)
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("lang: internal error: lowered program invalid: %w", err)
	}
	return prog, nil
}

// Lower translates a checked file into IR. Boolean conditions lower into
// control flow directly (short-circuit && and || become real branches), so
// the profiler sees the same branch structure a C compiler would emit.
func Lower(file *File, info *Info) (*ir.Program, error) {
	lw := &lowerer{
		info:    info,
		prog:    ir.NewProgram(),
		funcs:   make(map[*FuncDecl]*ir.Func),
		globals: make(map[*VarDecl]*ir.Global),
	}
	// Declare globals first so function bodies can reference them.
	for _, d := range file.Decls {
		g, ok := d.(*VarDecl)
		if !ok {
			continue
		}
		irg := &ir.Global{Name: g.Name, Type: g.Type, Len: max(g.Len, 1), Array: g.Len > 0}
		if g.Init != nil {
			irg.Init = []int64{info.Defs[g].Init}
		}
		if err := lw.prog.AddGlobal(irg); err != nil {
			return nil, err
		}
		lw.globals[g] = irg
	}
	// Declare function shells so calls can reference forward targets.
	for _, d := range file.Decls {
		fd, ok := d.(*FuncDecl)
		if !ok {
			continue
		}
		f := &ir.Func{
			Name:    fd.Name,
			NParams: len(fd.Params),
			NRegs:   info.LocalSlots[fd],
			RetType: fd.Ret,
		}
		if err := lw.prog.AddFunc(f); err != nil {
			return nil, err
		}
		lw.funcs[fd] = f
	}
	for _, d := range file.Decls {
		fd, ok := d.(*FuncDecl)
		if !ok {
			continue
		}
		if err := lw.lowerFunc(fd); err != nil {
			return nil, err
		}
	}
	return lw.prog, nil
}

type loopCtx struct {
	brk, cont *ir.Block
}

type lowerer struct {
	info    *Info
	prog    *ir.Program
	funcs   map[*FuncDecl]*ir.Func
	globals map[*VarDecl]*ir.Global

	b     *ir.Builder
	loops []loopCtx
}

func (lw *lowerer) lowerFunc(fd *FuncDecl) error {
	f := lw.funcs[fd]
	lw.b = ir.NewBuilder(f)
	lw.loops = lw.loops[:0]
	if err := lw.lowerBlock(fd.Body); err != nil {
		return err
	}
	// Implicit return at fall-through: zero value for non-void functions.
	if lw.b.Cur != nil && lw.b.Cur.Term.Op == ir.TermInvalid {
		lw.retZero(fd.Ret)
	}
	// Seal any other dangling blocks (e.g. unreachable join points) with a
	// default return so the IR validates.
	for _, blk := range f.Blocks {
		if blk.Term.Op == ir.TermInvalid {
			lw.b.SetBlock(blk)
			lw.retZero(fd.Ret)
		}
	}
	// Blocks sealed above may be unreachable (both arms of a join returned);
	// mark them dead so Validate's reachability invariant holds.
	ir.MarkUnreachableDead(f)
	return nil
}

// retZero ends the current block by returning the zero value of ret.
func (lw *lowerer) retZero(ret ir.Type) {
	switch ret {
	case ir.TVoid:
		lw.b.Ret()
	case ir.TFloat:
		lw.b.RetVal(lw.b.ConstF(0))
	default:
		lw.b.RetVal(lw.b.ConstI(0))
	}
}

func (lw *lowerer) lowerBlock(b *BlockStmt) error {
	for _, s := range b.Stmts {
		if err := lw.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lw *lowerer) lowerStmt(s Stmt) error {
	switch s := s.(type) {
	case *BlockStmt:
		return lw.lowerBlock(s)
	case *LocalDecl:
		sym := lw.info.Defs[s]
		if sym == nil {
			return errf(s.Pos, "internal error: no slot for local %q", s.Name)
		}
		slot := sym.Slot
		if s.Init != nil {
			v, err := lw.lowerExpr(s.Init)
			if err != nil {
				return err
			}
			lw.b.Mov(slot, v)
		} else {
			var z ir.Reg
			if s.Type == ir.TFloat {
				z = lw.b.ConstF(0)
			} else {
				z = lw.b.ConstI(0)
			}
			lw.b.Mov(slot, z)
		}
		return nil
	case *AssignStmt:
		return lw.lowerAssign(s)
	case *IfStmt:
		return lw.lowerIf(s)
	case *WhileStmt:
		return lw.lowerWhile(s)
	case *ForStmt:
		return lw.lowerFor(s)
	case *SwitchStmt:
		return lw.lowerSwitch(s)
	case *BreakStmt:
		if len(lw.loops) == 0 {
			return errf(s.Pos, "internal error: break outside loop")
		}
		lw.b.Jmp(lw.loops[len(lw.loops)-1].brk)
		return nil
	case *ContinueStmt:
		if len(lw.loops) == 0 {
			return errf(s.Pos, "internal error: continue outside loop")
		}
		lw.b.Jmp(lw.loops[len(lw.loops)-1].cont)
		return nil
	case *ReturnStmt:
		if s.Value == nil {
			lw.b.Ret()
			return nil
		}
		v, err := lw.lowerExpr(s.Value)
		if err != nil {
			return err
		}
		lw.b.RetVal(v)
		return nil
	case *ExprStmt:
		_, err := lw.lowerExpr(s.X)
		return err
	}
	return fmt.Errorf("lang: cannot lower %T", s)
}

// use returns the symbol a reference resolves to.
func (lw *lowerer) use(ref any, pos Pos, name string) (*Symbol, error) {
	if sym := lw.info.Uses[ref]; sym != nil {
		return sym, nil
	}
	return nil, errf(pos, "internal error: unresolved %q", name)
}

func (lw *lowerer) lowerAssign(s *AssignStmt) error {
	sym, err := lw.use(s, s.Pos, s.Name)
	if err != nil {
		return err
	}
	if s.Index != nil {
		idx, err := lw.lowerExpr(s.Index)
		if err != nil {
			return err
		}
		val, err := lw.lowerExpr(s.Value)
		if err != nil {
			return err
		}
		lw.b.StoreElem(lw.globals[sym.Global], idx, val)
		return nil
	}
	val, err := lw.lowerExpr(s.Value)
	if err != nil {
		return err
	}
	if sym.Global != nil {
		lw.b.StoreG(lw.globals[sym.Global], val)
	} else {
		lw.b.Mov(sym.Slot, val)
	}
	return nil
}

func (lw *lowerer) lowerIf(s *IfStmt) error {
	thenB := lw.b.Block("if.then")
	join := lw.b.Block("if.join")
	elseB := join
	if s.Else != nil {
		elseB = lw.b.Block("if.else")
	}
	if err := lw.lowerCond(s.Cond, thenB, elseB); err != nil {
		return err
	}
	lw.b.SetBlock(thenB)
	if err := lw.lowerBlock(s.Then); err != nil {
		return err
	}
	lw.b.Jmp(join)
	if s.Else != nil {
		lw.b.SetBlock(elseB)
		if err := lw.lowerStmt(s.Else); err != nil {
			return err
		}
		lw.b.Jmp(join)
	}
	lw.b.SetBlock(join)
	return nil
}

func (lw *lowerer) lowerWhile(s *WhileStmt) error {
	head := lw.b.Block("while.head")
	body := lw.b.Block("while.body")
	exit := lw.b.Block("while.exit")
	lw.b.Jmp(head)
	lw.b.SetBlock(head)
	if err := lw.lowerCond(s.Cond, body, exit); err != nil {
		return err
	}
	lw.loops = append(lw.loops, loopCtx{brk: exit, cont: head})
	lw.b.SetBlock(body)
	if err := lw.lowerBlock(s.Body); err != nil {
		return err
	}
	lw.b.Jmp(head)
	lw.loops = lw.loops[:len(lw.loops)-1]
	lw.b.SetBlock(exit)
	return nil
}

func (lw *lowerer) lowerFor(s *ForStmt) error {
	if s.Init != nil {
		if err := lw.lowerStmt(s.Init); err != nil {
			return err
		}
	}
	head := lw.b.Block("for.head")
	body := lw.b.Block("for.body")
	post := lw.b.Block("for.post")
	exit := lw.b.Block("for.exit")
	lw.b.Jmp(head)
	lw.b.SetBlock(head)
	if s.Cond != nil {
		if err := lw.lowerCond(s.Cond, body, exit); err != nil {
			return err
		}
	} else {
		lw.b.Jmp(body)
	}
	lw.loops = append(lw.loops, loopCtx{brk: exit, cont: post})
	lw.b.SetBlock(body)
	if err := lw.lowerBlock(s.Body); err != nil {
		return err
	}
	lw.b.Jmp(post)
	lw.loops = lw.loops[:len(lw.loops)-1]
	lw.b.SetBlock(post)
	if s.Post != nil {
		if err := lw.lowerStmt(s.Post); err != nil {
			return err
		}
	}
	lw.b.Jmp(head)
	lw.b.SetBlock(exit)
	return nil
}

// lowerSwitch lowers a switch statement to one TermSwitch terminator: a
// dense target table of size max(label)+1, label gaps and out-of-range tag
// values dispatching to the default arm (the join block when the source has
// none). Each case body gets its own block and jumps to the join, so cases
// never fall through.
func (lw *lowerer) lowerSwitch(s *SwitchStmt) error {
	tag, err := lw.lowerExpr(s.Tag)
	if err != nil {
		return err
	}
	join := lw.b.Block("switch.join")
	defaultB := join
	if s.Default != nil {
		defaultB = lw.b.Block("switch.default")
	}
	maxLabel := int64(0)
	for _, cs := range s.Cases {
		if cs.Val > maxLabel {
			maxLabel = cs.Val
		}
	}
	targets := make([]*ir.Block, maxLabel+1)
	for i := range targets {
		targets[i] = defaultB
	}
	caseBlocks := make([]*ir.Block, len(s.Cases))
	for i, cs := range s.Cases {
		cb := lw.b.Block(fmt.Sprintf("switch.case%d", cs.Val))
		caseBlocks[i] = cb
		targets[cs.Val] = cb
	}
	lw.b.Switch(tag, targets, defaultB)
	for i, cs := range s.Cases {
		lw.b.SetBlock(caseBlocks[i])
		if err := lw.lowerBlock(cs.Body); err != nil {
			return err
		}
		lw.b.Jmp(join)
	}
	if s.Default != nil {
		lw.b.SetBlock(defaultB)
		if err := lw.lowerBlock(s.Default); err != nil {
			return err
		}
		lw.b.Jmp(join)
	}
	lw.b.SetBlock(join)
	return nil
}

// lowerCond lowers a boolean expression as control flow: jump to thenB when
// it is true and elseB when false. Short-circuit operators and negation
// become branch structure instead of materialised values.
func (lw *lowerer) lowerCond(e Expr, thenB, elseB *ir.Block) error {
	switch e := e.(type) {
	case *BoolLit:
		if e.Val {
			lw.b.Jmp(thenB)
		} else {
			lw.b.Jmp(elseB)
		}
		return nil
	case *UnaryExpr:
		if e.Op == TokNot {
			return lw.lowerCond(e.X, elseB, thenB)
		}
	case *BinaryExpr:
		switch e.Op {
		case TokAndAnd:
			mid := lw.b.Block("and.rhs")
			if err := lw.lowerCond(e.X, mid, elseB); err != nil {
				return err
			}
			lw.b.SetBlock(mid)
			return lw.lowerCond(e.Y, thenB, elseB)
		case TokOrOr:
			mid := lw.b.Block("or.rhs")
			if err := lw.lowerCond(e.X, thenB, mid); err != nil {
				return err
			}
			lw.b.SetBlock(mid)
			return lw.lowerCond(e.Y, thenB, elseB)
		}
	}
	v, err := lw.lowerExpr(e)
	if err != nil {
		return err
	}
	lw.b.Br(v, thenB, elseB)
	return nil
}

func (lw *lowerer) lowerExpr(e Expr) (ir.Reg, error) {
	switch e := e.(type) {
	case *IntLit:
		return lw.b.ConstI(e.Val), nil
	case *FloatLit:
		return lw.b.ConstF(e.Val), nil
	case *BoolLit:
		if e.Val {
			return lw.b.ConstI(1), nil
		}
		return lw.b.ConstI(0), nil
	case *Ident:
		sym, err := lw.use(e, e.Pos, e.Name)
		if err != nil {
			return 0, err
		}
		if sym.Global != nil {
			return lw.b.LoadG(lw.globals[sym.Global]), nil
		}
		return sym.Slot, nil
	case *IndexExpr:
		sym, err := lw.use(e, e.Pos, e.Name)
		if err != nil {
			return 0, err
		}
		idx, err := lw.lowerExpr(e.Index)
		if err != nil {
			return 0, err
		}
		return lw.b.LoadElem(lw.globals[sym.Global], idx), nil
	case *UnaryExpr:
		x, err := lw.lowerExpr(e.X)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case TokMinus:
			if e.Operand == ir.TFloat {
				return lw.b.Unary(ir.OpNegF, x), nil
			}
			return lw.b.Unary(ir.OpNegI, x), nil
		case TokNot:
			return lw.b.Unary(ir.OpNotI, x), nil
		}
		return 0, errf(e.Pos, "internal error: unary %v", e.Op)
	case *BinaryExpr:
		return lw.lowerBinary(e)
	case *CallExpr:
		return lw.lowerCall(e)
	}
	return 0, fmt.Errorf("lang: cannot lower expression %T", e)
}

func (lw *lowerer) lowerBinary(e *BinaryExpr) (ir.Reg, error) {
	switch e.Op {
	case TokAndAnd, TokOrOr:
		// Value context: materialise through control flow.
		res := lw.b.Func.NewReg()
		tBlk := lw.b.Block("bool.true")
		fBlk := lw.b.Block("bool.false")
		join := lw.b.Block("bool.join")
		if err := lw.lowerCond(e, tBlk, fBlk); err != nil {
			return 0, err
		}
		lw.b.SetBlock(tBlk)
		lw.b.Mov(res, lw.b.ConstI(1))
		lw.b.Jmp(join)
		lw.b.SetBlock(fBlk)
		lw.b.Mov(res, lw.b.ConstI(0))
		lw.b.Jmp(join)
		lw.b.SetBlock(join)
		return res, nil
	}
	x, err := lw.lowerExpr(e.X)
	if err != nil {
		return 0, err
	}
	y, err := lw.lowerExpr(e.Y)
	if err != nil {
		return 0, err
	}
	isF := e.Operand == ir.TFloat
	var op ir.Op
	switch e.Op {
	case TokPlus:
		op = pick(isF, ir.OpAddF, ir.OpAddI)
	case TokMinus:
		op = pick(isF, ir.OpSubF, ir.OpSubI)
	case TokStar:
		op = pick(isF, ir.OpMulF, ir.OpMulI)
	case TokSlash:
		op = pick(isF, ir.OpDivF, ir.OpDivI)
	case TokPercent:
		op = ir.OpModI
	case TokAmp:
		op = ir.OpAndI
	case TokPipe:
		op = ir.OpOrI
	case TokCaret:
		op = ir.OpXorI
	case TokShl:
		op = ir.OpShlI
	case TokShr:
		op = ir.OpShrI
	case TokEq:
		op = pick(isF, ir.OpEqF, ir.OpEqI)
	case TokNe:
		op = pick(isF, ir.OpNeF, ir.OpNeI)
	case TokLt:
		op = pick(isF, ir.OpLtF, ir.OpLtI)
	case TokLe:
		op = pick(isF, ir.OpLeF, ir.OpLeI)
	case TokGt:
		op = pick(isF, ir.OpGtF, ir.OpGtI)
	case TokGe:
		op = pick(isF, ir.OpGeF, ir.OpGeI)
	default:
		return 0, errf(e.Pos, "internal error: binary %v", e.Op)
	}
	return lw.b.Binary(op, x, y), nil
}

func pick(cond bool, a, b ir.Op) ir.Op {
	if cond {
		return a
	}
	return b
}

func (lw *lowerer) lowerCall(e *CallExpr) (ir.Reg, error) {
	target, ok := lw.info.Calls[e]
	if !ok {
		return 0, errf(e.Pos, "internal error: unresolved call %q", e.Name)
	}
	args := make([]ir.Reg, len(e.Args))
	for i, a := range e.Args {
		r, err := lw.lowerExpr(a)
		if err != nil {
			return 0, err
		}
		args[i] = r
	}
	if target.Func != nil {
		return lw.b.Call(lw.funcs[target.Func], args...), nil
	}
	isF := e.Operand == ir.TFloat
	switch target.Builtin {
	case BuiltinPrint:
		lw.b.Print(args[0])
		return 0, nil
	case BuiltinSqrt:
		return lw.b.Unary(ir.OpSqrtF, args[0]), nil
	case BuiltinAbs:
		if isF {
			return lw.b.Unary(ir.OpAbsF, args[0]), nil
		}
		return lw.b.Unary(ir.OpAbsI, args[0]), nil
	case BuiltinMin:
		if isF {
			return lw.b.Binary(ir.OpMinF, args[0], args[1]), nil
		}
		return lw.b.Binary(ir.OpMinI, args[0], args[1]), nil
	case BuiltinMax:
		if isF {
			return lw.b.Binary(ir.OpMaxF, args[0], args[1]), nil
		}
		return lw.b.Binary(ir.OpMaxI, args[0], args[1]), nil
	case BuiltinToInt:
		if isF {
			return lw.b.Unary(ir.OpFtoI, args[0]), nil
		}
		return args[0], nil // int(int) and int(bool) are identity on bits
	case BuiltinToFloat:
		if isF {
			return args[0], nil
		}
		return lw.b.Unary(ir.OpItoF, args[0]), nil
	}
	return 0, errf(e.Pos, "internal error: builtin %v", target.Builtin)
}
