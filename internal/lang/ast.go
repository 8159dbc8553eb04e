package lang

import "repro/internal/ir"

// File is a parsed BL translation unit.
type File struct {
	Decls []Decl
	// exprs is the parser's count of expression nodes, an upper bound
	// that Check sizes its Uses map by.
	exprs int
}

// Decl is a top-level declaration.
type Decl interface{ declNode() }

// VarDecl declares a global scalar or array. For arrays Len > 0 and Init is
// nil (arrays start zeroed); for scalars Len == 0 and Init, when present,
// must be a constant expression.
type VarDecl struct {
	Pos  Pos
	Name string
	Type ir.Type
	Len  int
	Init Expr
}

// Param is one function parameter.
type Param struct {
	Pos  Pos
	Name string
	Type ir.Type
}

// FuncDecl declares a function. Ret is TVoid for procedures.
type FuncDecl struct {
	Pos    Pos
	Name   string
	Params []Param
	Ret    ir.Type
	Body   *BlockStmt
}

func (*VarDecl) declNode()  {}
func (*FuncDecl) declNode() {}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// BlockStmt is { stmts... } with its own scope.
type BlockStmt struct {
	Pos   Pos
	Stmts []Stmt
}

// LocalDecl declares a scalar local, optionally initialised.
type LocalDecl struct {
	Pos  Pos
	Name string
	Type ir.Type
	Init Expr
}

// AssignStmt assigns to a scalar (Index == nil) or an array element.
type AssignStmt struct {
	Pos   Pos
	Name  string
	Index Expr
	Value Expr
}

// IfStmt is if/else; Else is nil, a *BlockStmt, or a nested *IfStmt.
type IfStmt struct {
	Pos  Pos
	Cond Expr
	Then *BlockStmt
	Else Stmt
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Pos  Pos
	Cond Expr
	Body *BlockStmt
}

// ForStmt is for init; cond; post { body }. Init and Post are nil, a
// *LocalDecl (Init only), or an *AssignStmt; Cond may be nil (infinite).
type ForStmt struct {
	Pos  Pos
	Init Stmt
	Cond Expr
	Post Stmt
	Body *BlockStmt
}

// SwitchStmt is an N-way dispatch on an int expression. Cases do not fall
// through; a missing default falls out of the switch. break/continue inside
// a case body still bind to the enclosing loop, never the switch.
type SwitchStmt struct {
	Pos     Pos
	Tag     Expr
	Cases   []SwitchCase
	Default *BlockStmt // nil when absent
}

// SwitchCase is one "case N:" arm with its body.
type SwitchCase struct {
	Pos  Pos
	Val  int64
	Body *BlockStmt
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Pos Pos }

// ContinueStmt jumps to the innermost loop's next iteration.
type ContinueStmt struct{ Pos Pos }

// ReturnStmt returns, with a value for non-void functions.
type ReturnStmt struct {
	Pos   Pos
	Value Expr
}

// ExprStmt evaluates an expression (a call) for effect.
type ExprStmt struct {
	Pos Pos
	X   Expr
}

func (*BlockStmt) stmtNode()    {}
func (*LocalDecl) stmtNode()    {}
func (*AssignStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*SwitchStmt) stmtNode()   {}
func (*ForStmt) stmtNode()      {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ReturnStmt) stmtNode()   {}
func (*ExprStmt) stmtNode()     {}

// Expr is an expression node.
type Expr interface {
	exprNode()
	Position() Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Pos Pos
	Val int64
}

// FloatLit is a float literal.
type FloatLit struct {
	Pos Pos
	Val float64
}

// BoolLit is true/false.
type BoolLit struct {
	Pos Pos
	Val bool
}

// Ident references a local, parameter, or global scalar.
type Ident struct {
	Pos  Pos
	Name string
}

// IndexExpr reads a global array element.
type IndexExpr struct {
	Pos   Pos
	Name  string
	Index Expr
}

// CallExpr calls a function or builtin. Conversions int(x) and float(x)
// parse as calls with those names.
type CallExpr struct {
	Pos  Pos
	Name string
	Args []Expr
	// Operand is the type of a builtin call's first argument, which picks
	// the builtin's int or float form. Check records it for lowering.
	Operand ir.Type
}

// UnaryExpr is -x or !x.
type UnaryExpr struct {
	Pos Pos
	Op  TokKind
	X   Expr
	// Operand is the type of X. Check records it for lowering.
	Operand ir.Type
}

// BinaryExpr is a binary operation, including short-circuit && and ||.
type BinaryExpr struct {
	Pos  Pos
	Op   TokKind
	X, Y Expr
	// Operand is the type of X and Y, which Check requires to be equal.
	// Check records it for lowering.
	Operand ir.Type
}

func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*BoolLit) exprNode()    {}
func (*Ident) exprNode()      {}
func (*IndexExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
func (*UnaryExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}

func (e *IntLit) Position() Pos     { return e.Pos }
func (e *FloatLit) Position() Pos   { return e.Pos }
func (e *BoolLit) Position() Pos    { return e.Pos }
func (e *Ident) Position() Pos      { return e.Pos }
func (e *IndexExpr) Position() Pos  { return e.Pos }
func (e *CallExpr) Position() Pos   { return e.Pos }
func (e *UnaryExpr) Position() Pos  { return e.Pos }
func (e *BinaryExpr) Position() Pos { return e.Pos }
