package lang_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/lang"
	"repro/internal/progen"
)

// resolver walks a checked file with its own scope stack and, for every
// reference, checks that Info.Uses names the very Symbol that Info.Defs
// holds for the declaration the scope rules pick.
type resolver struct {
	t       *testing.T
	info    *lang.Info
	globals map[string]any
	scopes  []map[string]any
	defs    int
	uses    int
}

func (r *resolver) def(decl any, name string) {
	sym := r.info.Defs[decl]
	if sym == nil || sym.Name != name {
		r.t.Fatalf("Defs[%s] = %+v", name, sym)
	}
	r.defs++
	r.scopes[len(r.scopes)-1][name] = decl
}

func (r *resolver) use(ref any, name string, array bool) {
	r.uses++
	decl, ok := r.globals[name]
	if !array {
		for i := len(r.scopes) - 1; i >= 0; i-- {
			if d, found := r.scopes[i][name]; found {
				decl, ok = d, true
				break
			}
		}
	}
	if !ok {
		r.t.Fatalf("%s resolves to no declaration", name)
	}
	if got, want := r.info.Uses[ref], r.info.Defs[decl]; got == nil || got != want {
		r.t.Fatalf("Uses[%s] = %p, want the declaration's symbol %p", name, got, want)
	}
}

func (r *resolver) block(b *lang.BlockStmt) {
	r.scopes = append(r.scopes, map[string]any{})
	for _, s := range b.Stmts {
		r.stmt(s)
	}
	r.scopes = r.scopes[:len(r.scopes)-1]
}

func (r *resolver) stmt(s lang.Stmt) {
	switch s := s.(type) {
	case *lang.BlockStmt:
		r.block(s)
	case *lang.LocalDecl:
		if s.Init != nil {
			r.expr(s.Init)
		}
		r.def(s, s.Name)
	case *lang.AssignStmt:
		r.expr(s.Value)
		if s.Index != nil {
			r.expr(s.Index)
		}
		r.use(s, s.Name, s.Index != nil)
	case *lang.IfStmt:
		r.expr(s.Cond)
		r.block(s.Then)
		if s.Else != nil {
			r.stmt(s.Else)
		}
	case *lang.WhileStmt:
		r.expr(s.Cond)
		r.block(s.Body)
	case *lang.ForStmt:
		r.scopes = append(r.scopes, map[string]any{})
		for _, st := range []lang.Stmt{s.Init, s.Post} {
			if st != nil {
				r.stmt(st)
			}
		}
		if s.Cond != nil {
			r.expr(s.Cond)
		}
		r.block(s.Body)
		r.scopes = r.scopes[:len(r.scopes)-1]
	case *lang.SwitchStmt:
		r.expr(s.Tag)
		for _, cs := range s.Cases {
			r.block(cs.Body)
		}
		if s.Default != nil {
			r.block(s.Default)
		}
	case *lang.ReturnStmt:
		if s.Value != nil {
			r.expr(s.Value)
		}
	case *lang.ExprStmt:
		r.expr(s.X)
	}
}

func (r *resolver) expr(e lang.Expr) {
	switch e := e.(type) {
	case *lang.Ident:
		r.use(e, e.Name, false)
	case *lang.IndexExpr:
		r.expr(e.Index)
		r.use(e, e.Name, true)
	case *lang.UnaryExpr:
		r.expr(e.X)
	case *lang.BinaryExpr:
		r.expr(e.X)
		r.expr(e.Y)
	case *lang.CallExpr:
		for _, a := range e.Args {
			r.expr(a)
		}
	}
}

// TestOneSymbolPerDeclaration pins the resolution record: Check makes one
// Symbol per global, parameter and local declaration, and every reference
// maps to its declaration's Symbol, pointer-equal, through shadowing,
// for-loop scopes and arrays that only globals can name.
func TestOneSymbolPerDeclaration(t *testing.T) {
	srcs := []string{`
var x int = 5;
var a [4]int;
var y float;
func f(x int, a int) int {
    var y int = x + a;
    { var x int = y * 2; a = x; }
    for var x int = 0; x < 3; x = x + 1 { y = y + x; }
    return x + y;
}
func main() int {
    var z int = x;
    a[z % 4] = f(a[1], z);
    { var x int = a[0]; z = z + x; }
    x = z;
    y = float(x);
    return x;
}`}
	for _, w := range append(bench.Workloads(), bench.IndirectWorkloads()...) {
		srcs = append(srcs, w.Source)
	}
	for seed := int64(0); seed < 20; seed++ {
		srcs = append(srcs, progen.Generate(seed, progen.DefaultConfig()))
	}
	for _, src := range srcs {
		file, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := lang.Check(file)
		if err != nil {
			t.Fatal(err)
		}
		r := &resolver{t: t, info: info, globals: map[string]any{}}
		r.scopes = []map[string]any{r.globals}
		for _, d := range file.Decls {
			if g, ok := d.(*lang.VarDecl); ok {
				r.def(g, g.Name)
			}
		}
		for _, d := range file.Decls {
			fd, ok := d.(*lang.FuncDecl)
			if !ok {
				continue
			}
			r.scopes = append(r.scopes[:1], map[string]any{})
			for i := range fd.Params {
				r.def(&fd.Params[i], fd.Params[i].Name)
			}
			r.block(fd.Body)
		}
		if len(info.Uses) != r.uses {
			t.Errorf("Uses has %d entries, the file has %d references", len(info.Uses), r.uses)
		}
		seen := map[*lang.Symbol]bool{}
		for _, sym := range info.Defs {
			if seen[sym] {
				t.Fatalf("two declarations share the symbol of %q", sym.Name)
			}
			seen[sym] = true
		}
		if len(info.Defs) != r.defs {
			t.Errorf("Defs has %d entries, the file has %d declarations", len(info.Defs), r.defs)
		}
	}
}
