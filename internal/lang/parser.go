package lang

import (
	"strconv"

	"repro/internal/ir"
)

// Parser is a recursive-descent parser for BL with Pratt-style expression
// parsing.
type Parser struct {
	lex   *Lexer
	tok   Token
	err   error
	depth int
	exprs int // expression nodes parsed, see File.exprs
}

// maxNestDepth bounds statement and expression nesting so adversarial
// input (deep parens, long else-if chains) produces a parse error instead
// of exhausting the goroutine stack. Real BL programs nest a handful of
// levels; 200 is far beyond anything the workloads use.
const maxNestDepth = 200

// enter counts one level of recursive nesting; when the bound is exceeded
// it reports an error (forcing the parser to EOF) and returns false.
func (p *Parser) enter(pos Pos) bool {
	p.depth++
	if p.depth > maxNestDepth {
		p.fail(pos, "nesting deeper than %d levels", maxNestDepth)
		return false
	}
	return true
}

func (p *Parser) leave() { p.depth-- }

// Parse parses a complete BL source file.
func Parse(src string) (*File, error) {
	p := &Parser{lex: NewLexer(src)}
	p.next()
	f := &File{}
	for p.tok.Kind != TokEOF {
		if p.err != nil {
			return nil, p.err
		}
		switch p.tok.Kind {
		case TokVar:
			d := p.parseVarDecl()
			if p.err != nil {
				return nil, p.err
			}
			f.Decls = append(f.Decls, d)
		case TokFunc:
			d := p.parseFuncDecl()
			if p.err != nil {
				return nil, p.err
			}
			f.Decls = append(f.Decls, d)
		default:
			return nil, errf(p.tok.Pos, "expected declaration, found %s", describe(p.tok))
		}
	}
	f.exprs = p.exprs
	return f, p.err
}

func (p *Parser) next() {
	if p.err != nil {
		p.tok = Token{Kind: TokEOF}
		return
	}
	t, err := p.lex.Next()
	if err != nil {
		p.err = err
		p.tok = Token{Kind: TokEOF}
		return
	}
	p.tok = t
}

func (p *Parser) fail(pos Pos, format string, args ...any) {
	if p.err == nil {
		p.err = errf(pos, format, args...)
	}
	p.tok = Token{Kind: TokEOF}
}

func (p *Parser) expect(k TokKind) Token {
	t := p.tok
	if t.Kind != k {
		p.fail(t.Pos, "expected '%s', found %s", k, describe(t))
		return t
	}
	p.next()
	return t
}

func (p *Parser) accept(k TokKind) bool {
	if p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *Parser) parseType() ir.Type {
	switch p.tok.Kind {
	case TokTypeInt:
		p.next()
		return ir.TInt
	case TokTypeFloat:
		p.next()
		return ir.TFloat
	case TokTypeBool:
		p.next()
		return ir.TBool
	}
	p.fail(p.tok.Pos, "expected type, found %s", describe(p.tok))
	return ir.TVoid
}

// parseVarDecl parses "var name type (= expr)? ;" or "var name [N] type ;".
func (p *Parser) parseVarDecl() *VarDecl {
	pos := p.expect(TokVar).Pos
	name := p.expect(TokIdent)
	d := &VarDecl{Pos: pos, Name: name.Text}
	if p.accept(TokLBracket) {
		lenTok := p.expect(TokIntLit)
		n, convErr := strconv.ParseInt(lenTok.Text, 10, 32)
		if convErr != nil || n <= 0 {
			p.fail(lenTok.Pos, "invalid array length %q", lenTok.Text)
			return d
		}
		p.expect(TokRBracket)
		d.Len = int(n)
		d.Type = p.parseType()
		if d.Type == ir.TBool {
			p.fail(pos, "array element type must be int or float")
		}
	} else {
		d.Type = p.parseType()
		if p.accept(TokAssign) {
			d.Init = p.parseExpr()
		}
	}
	p.expect(TokSemi)
	return d
}

func (p *Parser) parseFuncDecl() *FuncDecl {
	pos := p.expect(TokFunc).Pos
	name := p.expect(TokIdent)
	d := &FuncDecl{Pos: pos, Name: name.Text, Ret: ir.TVoid}
	p.expect(TokLParen)
	if p.tok.Kind != TokRParen {
		for {
			pn := p.expect(TokIdent)
			pt := p.parseType()
			d.Params = append(d.Params, Param{Pos: pn.Pos, Name: pn.Text, Type: pt})
			if !p.accept(TokComma) {
				break
			}
		}
	}
	p.expect(TokRParen)
	switch p.tok.Kind {
	case TokTypeInt, TokTypeFloat, TokTypeBool:
		d.Ret = p.parseType()
	}
	d.Body = p.parseBlock()
	return d
}

func (p *Parser) parseBlock() *BlockStmt {
	b := &BlockStmt{Pos: p.tok.Pos}
	p.expect(TokLBrace)
	for p.tok.Kind != TokRBrace && p.tok.Kind != TokEOF {
		b.Stmts = append(b.Stmts, p.parseStmt())
		if p.err != nil {
			return b
		}
	}
	p.expect(TokRBrace)
	return b
}

func (p *Parser) parseStmt() Stmt {
	if !p.enter(p.tok.Pos) {
		return &ExprStmt{Pos: p.tok.Pos, X: &IntLit{Pos: p.tok.Pos}}
	}
	defer p.leave()
	switch p.tok.Kind {
	case TokVar:
		return p.parseLocalDecl()
	case TokIf:
		return p.parseIf()
	case TokWhile:
		return p.parseWhile()
	case TokFor:
		return p.parseFor()
	case TokSwitch:
		return p.parseSwitch()
	case TokBreak:
		pos := p.tok.Pos
		p.next()
		p.expect(TokSemi)
		return &BreakStmt{Pos: pos}
	case TokContinue:
		pos := p.tok.Pos
		p.next()
		p.expect(TokSemi)
		return &ContinueStmt{Pos: pos}
	case TokReturn:
		pos := p.tok.Pos
		p.next()
		r := &ReturnStmt{Pos: pos}
		if p.tok.Kind != TokSemi {
			r.Value = p.parseExpr()
		}
		p.expect(TokSemi)
		return r
	case TokLBrace:
		return p.parseBlock()
	}
	s := p.parseSimpleStmt()
	p.expect(TokSemi)
	return s
}

func (p *Parser) parseLocalDecl() *LocalDecl {
	pos := p.expect(TokVar).Pos
	name := p.expect(TokIdent)
	d := &LocalDecl{Pos: pos, Name: name.Text}
	if p.tok.Kind == TokLBracket {
		p.fail(p.tok.Pos, "local arrays are not supported; declare %q globally", name.Text)
		return d
	}
	d.Type = p.parseType()
	if p.accept(TokAssign) {
		d.Init = p.parseExpr()
	}
	p.expect(TokSemi)
	return d
}

// parseSimpleStmt parses an assignment or call statement (no semicolon).
func (p *Parser) parseSimpleStmt() Stmt {
	if p.tok.Kind != TokIdent {
		p.fail(p.tok.Pos, "expected statement, found %s", describe(p.tok))
		return &ExprStmt{Pos: p.tok.Pos, X: &IntLit{Pos: p.tok.Pos}}
	}
	name := p.tok
	p.next()
	switch p.tok.Kind {
	case TokAssign:
		p.next()
		return &AssignStmt{Pos: name.Pos, Name: name.Text, Value: p.parseExpr()}
	case TokLBracket:
		p.next()
		idx := p.parseExpr()
		p.expect(TokRBracket)
		p.expect(TokAssign)
		return &AssignStmt{Pos: name.Pos, Name: name.Text, Index: idx, Value: p.parseExpr()}
	case TokLParen:
		call := p.parseCallAfterName(name)
		return &ExprStmt{Pos: name.Pos, X: call}
	}
	p.fail(p.tok.Pos, "expected '=', '[', or '(' after %q, found %s", name.Text, describe(p.tok))
	return &ExprStmt{Pos: name.Pos, X: &IntLit{Pos: name.Pos}}
}

func (p *Parser) parseIf() *IfStmt {
	pos := p.tok.Pos
	if !p.enter(pos) { // else-if chains recurse here without parseStmt
		return &IfStmt{Pos: pos, Cond: &BoolLit{Pos: pos}, Then: &BlockStmt{Pos: pos}}
	}
	defer p.leave()
	p.expect(TokIf)
	s := &IfStmt{Pos: pos, Cond: p.parseExpr()}
	s.Then = p.parseBlock()
	if p.accept(TokElse) {
		if p.tok.Kind == TokIf {
			s.Else = p.parseIf()
		} else {
			s.Else = p.parseBlock()
		}
	}
	return s
}

func (p *Parser) parseWhile() *WhileStmt {
	pos := p.expect(TokWhile).Pos
	s := &WhileStmt{Pos: pos, Cond: p.parseExpr()}
	s.Body = p.parseBlock()
	return s
}

// parseSwitch parses
//
//	switch expr { case N: stmts... [case M: stmts...]... [default: stmts...] }
//
// Case labels are non-negative integer literals; bodies run to the next
// label (no fallthrough). The default arm, when present, must come last.
func (p *Parser) parseSwitch() *SwitchStmt {
	pos := p.expect(TokSwitch).Pos
	s := &SwitchStmt{Pos: pos, Tag: p.parseExpr()}
	p.expect(TokLBrace)
	parseArmBody := func() *BlockStmt {
		b := &BlockStmt{Pos: p.tok.Pos}
		for p.tok.Kind != TokCase && p.tok.Kind != TokDefault &&
			p.tok.Kind != TokRBrace && p.tok.Kind != TokEOF {
			b.Stmts = append(b.Stmts, p.parseStmt())
			if p.err != nil {
				return b
			}
		}
		return b
	}
	for p.tok.Kind == TokCase {
		cpos := p.tok.Pos
		p.next()
		lit := p.expect(TokIntLit)
		v, convErr := strconv.ParseInt(lit.Text, 10, 32)
		if convErr != nil {
			p.fail(lit.Pos, "invalid case label %q", lit.Text)
			return s
		}
		p.expect(TokColon)
		s.Cases = append(s.Cases, SwitchCase{Pos: cpos, Val: v, Body: parseArmBody()})
		if p.err != nil {
			return s
		}
	}
	if p.accept(TokDefault) {
		p.expect(TokColon)
		s.Default = parseArmBody()
	}
	if len(s.Cases) == 0 && p.err == nil {
		p.fail(pos, "switch needs at least one case")
		return s
	}
	p.expect(TokRBrace)
	return s
}

func (p *Parser) parseFor() *ForStmt {
	pos := p.expect(TokFor).Pos
	s := &ForStmt{Pos: pos}
	if p.tok.Kind != TokSemi {
		if p.tok.Kind == TokVar {
			d := p.parseLocalDecl() // consumes the ';'
			s.Init = d
		} else {
			s.Init = p.parseSimpleStmt()
			p.expect(TokSemi)
		}
	} else {
		p.expect(TokSemi)
	}
	if p.tok.Kind != TokSemi {
		s.Cond = p.parseExpr()
	}
	p.expect(TokSemi)
	if p.tok.Kind != TokLBrace {
		s.Post = p.parseSimpleStmt()
	}
	s.Body = p.parseBlock()
	return s
}

// Expression parsing: precedence climbing. Highest binds tightest.
//
//	7: unary - !
//	6: * / % << >> &
//	5: + - | ^
//	4: == != < <= > >=
//	3: &&
//	2: ||
func binPrec(k TokKind) int {
	switch k {
	case TokStar, TokSlash, TokPercent, TokShl, TokShr, TokAmp:
		return 6
	case TokPlus, TokMinus, TokPipe, TokCaret:
		return 5
	case TokEq, TokNe, TokLt, TokLe, TokGt, TokGe:
		return 4
	case TokAndAnd:
		return 3
	case TokOrOr:
		return 2
	}
	return 0
}

func (p *Parser) parseExpr() Expr { return p.parseBinary(1) }

func (p *Parser) parseBinary(minPrec int) Expr {
	lhs := p.parseUnary()
	for {
		prec := binPrec(p.tok.Kind)
		if prec < minPrec || prec == 0 {
			return lhs
		}
		op := p.tok
		p.next()
		rhs := p.parseBinary(prec + 1)
		lhs = &BinaryExpr{Pos: op.Pos, Op: op.Kind, X: lhs, Y: rhs}
		p.exprs++
	}
}

func (p *Parser) parseUnary() Expr {
	p.exprs++
	if !p.enter(p.tok.Pos) { // deep parens re-enter via parsePrimary
		return &IntLit{Pos: p.tok.Pos}
	}
	defer p.leave()
	switch p.tok.Kind {
	case TokMinus:
		pos := p.tok.Pos
		p.next()
		return &UnaryExpr{Pos: pos, Op: TokMinus, X: p.parseUnary()}
	case TokNot:
		pos := p.tok.Pos
		p.next()
		return &UnaryExpr{Pos: pos, Op: TokNot, X: p.parseUnary()}
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() Expr {
	t := p.tok
	switch t.Kind {
	case TokIntLit:
		p.next()
		v, convErr := strconv.ParseInt(t.Text, 10, 64)
		if convErr != nil {
			p.fail(t.Pos, "invalid integer literal %q", t.Text)
		}
		return &IntLit{Pos: t.Pos, Val: v}
	case TokFloatLit:
		p.next()
		v, convErr := strconv.ParseFloat(t.Text, 64)
		if convErr != nil {
			p.fail(t.Pos, "invalid float literal %q", t.Text)
		}
		return &FloatLit{Pos: t.Pos, Val: v}
	case TokTrue:
		p.next()
		return &BoolLit{Pos: t.Pos, Val: true}
	case TokFalse:
		p.next()
		return &BoolLit{Pos: t.Pos, Val: false}
	case TokLParen:
		p.next()
		e := p.parseExpr()
		p.expect(TokRParen)
		return e
	case TokTypeInt, TokTypeFloat:
		// Conversion: int(expr) / float(expr).
		p.next()
		p.expect(TokLParen)
		arg := p.parseExpr()
		p.expect(TokRParen)
		name := "int"
		if t.Kind == TokTypeFloat {
			name = "float"
		}
		return &CallExpr{Pos: t.Pos, Name: name, Args: []Expr{arg}}
	case TokIdent:
		p.next()
		switch p.tok.Kind {
		case TokLParen:
			return p.parseCallAfterName(t)
		case TokLBracket:
			p.next()
			idx := p.parseExpr()
			p.expect(TokRBracket)
			return &IndexExpr{Pos: t.Pos, Name: t.Text, Index: idx}
		}
		return &Ident{Pos: t.Pos, Name: t.Text}
	}
	p.fail(t.Pos, "expected expression, found %s", describe(t))
	return &IntLit{Pos: t.Pos}
}

func (p *Parser) parseCallAfterName(name Token) *CallExpr {
	call := &CallExpr{Pos: name.Pos, Name: name.Text}
	p.expect(TokLParen)
	if p.tok.Kind != TokRParen {
		for {
			call.Args = append(call.Args, p.parseExpr())
			if !p.accept(TokComma) {
				break
			}
		}
	}
	p.expect(TokRParen)
	return call
}
