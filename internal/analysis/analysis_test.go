package analysis

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/statemachine"
)

func TestPosString(t *testing.T) {
	cases := []struct {
		pos  Pos
		want string
	}{
		{Pos{}, "program"},
		{Pos{Func: "main", Block: -1, Instr: -1}, "main"},
		{Pos{Func: "main", Block: 3, Instr: -1}, "main/b3"},
		{Pos{Func: "main", Block: 3, Instr: 2}, "main/b3[2]"},
	}
	for _, c := range cases {
		if got := c.pos.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.pos, got, c.want)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Pass: "equivalence", Sev: Error, Pos: Pos{Func: "f", Block: 1, Instr: -1}, Msg: "boom"}
	if got, want := d.String(), "error: equivalence: f/b1: boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	w := Diagnostic{Pass: "cfglint", Sev: Warning, Pos: Pos{}, Msg: "odd"}
	if got, want := w.String(), "warning: cfglint: program: odd"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// scriptedPass emits a fixed list of diagnostics, for Manager tests.
type scriptedPass struct {
	name string
	emit func(c *Context)
}

func (p scriptedPass) Name() string   { return p.name }
func (p scriptedPass) Run(c *Context) { p.emit(c) }

func TestManagerOrdersAndAttributes(t *testing.T) {
	prog := ir.NewProgram()
	c := NewContext(prog)
	m := &Manager{Passes: []Pass{
		scriptedPass{"one", func(c *Context) {
			c.Warnf(Pos{Func: "a", Block: 0, Instr: -1}, "w1")
			c.Errorf(Pos{Func: "b", Block: 2, Instr: -1}, "e2")
		}},
		scriptedPass{"two", func(c *Context) {
			c.Errorf(Pos{Func: "b", Block: 1, Instr: -1}, "e1")
		}},
	}}
	diags := m.Run(c)
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3", len(diags))
	}
	// Errors first, then by position; the warning sinks to the end.
	if diags[0].Msg != "e1" || diags[1].Msg != "e2" || diags[2].Msg != "w1" {
		t.Fatalf("bad order: %v", diags)
	}
	if diags[0].Pass != "two" || diags[1].Pass != "one" {
		t.Fatalf("pass attribution wrong: %v", diags)
	}
	if !HasErrors(diags) {
		t.Fatal("HasErrors = false")
	}
	if d := FirstError(diags); d == nil || d.Msg != "e1" {
		t.Fatalf("FirstError = %v", d)
	}
	// The context is drained: a second run reports nothing stale.
	if again := m.Run(NewContext(prog)); HasErrors(again[2:]) {
		t.Fatal("stale diagnostics leaked")
	}
	if HasErrors(nil) || FirstError([]Diagnostic{{Sev: Warning}}) != nil {
		t.Fatal("warnings must not count as errors")
	}
}

func TestContextCachesGraphs(t *testing.T) {
	prog := ir.NewProgram()
	f := &ir.Func{Name: "g", NRegs: 1, RetType: ir.TVoid}
	if err := prog.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	b := f.NewBlock("")
	f.Entry = b
	b.Term = ir.Term{Op: ir.TermRet}
	c := NewContext(prog)
	if c.Graph(f) != c.Graph(f) {
		t.Fatal("Graph not cached")
	}
	if c.Loops(f) != c.Loops(f) {
		t.Fatal("Loops not cached")
	}
}

// mkFunc builds a one-function program; edges maps block index to successor
// indices (0 = ret, 1 = jmp, 2 = br).
func mkFunc(t *testing.T, n int, edges map[int][]int) (*ir.Program, *ir.Func) {
	t.Helper()
	p := ir.NewProgram()
	f := &ir.Func{Name: "g", NRegs: 1, RetType: ir.TVoid}
	if err := p.AddFunc(f); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		f.NewBlock("")
	}
	f.Entry = f.Blocks[0]
	for i, b := range f.Blocks {
		succ := edges[i]
		switch len(succ) {
		case 0:
			b.Term = ir.Term{Op: ir.TermRet}
		case 1:
			b.Term = ir.Term{Op: ir.TermJmp, Then: f.Blocks[succ[0]]}
		case 2:
			b.Term = ir.Term{Op: ir.TermBr, Cond: 0, Then: f.Blocks[succ[0]], Else: f.Blocks[succ[1]], Site: -1, Orig: -1}
		}
	}
	return p, f
}

func msgs(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

func countSev(diags []Diagnostic, sev Severity) int {
	n := 0
	for _, d := range diags {
		if d.Sev == sev {
			n++
		}
	}
	return n
}

func TestCFGLintUnreachableNotDead(t *testing.T) {
	// Block 2 is unreachable and not marked dead.
	prog, f := mkFunc(t, 3, map[int][]int{0: {1}, 2: {1}})
	diags := Lint(prog, nil, nil)
	if !HasErrors(diags) {
		t.Fatalf("no error for unreachable block:\n%s", msgs(diags))
	}
	// Marking it dead clears the error.
	ir.MarkUnreachableDead(f)
	diags = Lint(prog, nil, nil)
	if HasErrors(diags) {
		t.Fatalf("dead-marked block still errors:\n%s", msgs(diags))
	}
}

func TestCFGLintSelfLoopAndIdenticalArms(t *testing.T) {
	// Block 1: side-effect-free jmp self-loop. Block 2 never runs.
	prog, _ := mkFunc(t, 2, map[int][]int{0: {1}, 1: {1}})
	diags := Lint(prog, nil, nil)
	if countSev(diags, Warning) == 0 {
		t.Fatalf("no warning for self-loop:\n%s", msgs(diags))
	}
	// Conditional branch with identical arms.
	prog2, _ := mkFunc(t, 2, map[int][]int{0: {1, 1}})
	diags2 := Lint(prog2, nil, nil)
	found := false
	for _, d := range diags2 {
		if strings.Contains(d.Msg, "identical arms") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no identical-arms warning:\n%s", msgs(diags2))
	}
}

func TestCFGLintBackEdgePred(t *testing.T) {
	// 0 -> 1(head) -> {2(body), 3(exit)}; 2 -> 1 via br whose taken arm is
	// the back edge, annotated not-taken.
	prog, f := mkFunc(t, 4, map[int][]int{0: {1}, 1: {2, 3}, 2: {1, 3}})
	f.Blocks[2].Term.Pred = ir.PredNotTaken
	diags := Lint(prog, nil, nil)
	found := false
	for _, d := range diags {
		if d.Sev == Warning && strings.Contains(d.Msg, "back edge") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no back-edge warning:\n%s", msgs(diags))
	}
}

func pat(bits uint32, n uint8) statemachine.Pattern {
	return statemachine.Pattern{Bits: bits, Len: n}
}

func TestMachinesLoopWellFormed(t *testing.T) {
	m := &statemachine.LoopMachine{
		States:    []statemachine.Pattern{pat(0, 1), pat(1, 1)},
		PredTaken: []bool{false, true},
		Init:      1,
		Hits:      8, Total: 10,
	}
	prog, _ := mkFunc(t, 1, nil)
	diags := Lint(prog, []statemachine.Choice{{Site: 0, Kind: statemachine.KindLoop, Loop: m}}, nil)
	if len(diags) != 0 {
		t.Fatalf("well-formed machine flagged:\n%s", msgs(diags))
	}
}

func TestMachinesLoopIncompleteStateSet(t *testing.T) {
	// {0, 11} is not suffix-closed: shifting "0" on taken yields "1", which
	// no state matches.
	m := &statemachine.LoopMachine{
		States:    []statemachine.Pattern{pat(0, 1), pat(3, 2)},
		PredTaken: []bool{false, true},
		Init:      0,
	}
	prog, _ := mkFunc(t, 1, nil)
	diags := Lint(prog, []statemachine.Choice{{Site: 0, Kind: statemachine.KindLoop, Loop: m}}, nil)
	d := FirstError(diags)
	if d == nil || !strings.Contains(d.Msg, "incomplete") {
		t.Fatalf("incomplete state set not diagnosed:\n%s", msgs(diags))
	}
}

func TestMachinesExitAndScores(t *testing.T) {
	bad := &statemachine.ExitMachine{N: 1, ExitTaken: true, PredTaken: []bool{true}}
	prog, _ := mkFunc(t, 1, nil)
	diags := Lint(prog, []statemachine.Choice{{Site: 0, Kind: statemachine.KindExit, Exit: bad}}, nil)
	if !HasErrors(diags) {
		t.Fatalf("1-state exit machine not diagnosed:\n%s", msgs(diags))
	}
	// Hits > Total on any choice is an error.
	diags = Lint(prog, []statemachine.Choice{{Site: 0, Kind: statemachine.KindProfile, Hits: 5, Total: 3}}, nil)
	if !HasErrors(diags) {
		t.Fatalf("hits > total not diagnosed:\n%s", msgs(diags))
	}
}

func TestMachinesPathMajorityMismatch(t *testing.T) {
	pm := &statemachine.PathMachine{
		Paths:      []profile.PathKey{1},
		PredTaken:  []bool{false},
		StatePairs: []profile.Pair{{Taken: 9, NotTaken: 1}}, // majority taken
		CatchPred:  false,
		CatchPair:  profile.Pair{Taken: 1, NotTaken: 2},
	}
	prog, _ := mkFunc(t, 1, nil)
	diags := Lint(prog, []statemachine.Choice{{Site: 0, Kind: statemachine.KindPath, Path: pm}}, nil)
	d := FirstError(diags)
	if d == nil || !strings.Contains(d.Msg, "majority") {
		t.Fatalf("path majority mismatch not diagnosed:\n%s", msgs(diags))
	}
}

func TestProfileConsistency(t *testing.T) {
	prof := profile.New(2, profile.Options{})
	outcomes := []bool{true, true, false, true, false, false, true, true, true, false, true, true}
	for i, o := range outcomes {
		prof.RecordBranch(int32(i%2), o)
	}
	prog, _ := mkFunc(t, 1, nil)
	if diags := Lint(prog, nil, prof); HasErrors(diags) {
		t.Fatalf("consistent profile flagged:\n%s", msgs(diags))
	}
	// Corrupt the aggregate counts: the stream no longer matches.
	prof.Counts.Taken[0]++
	diags := Lint(prog, nil, prof)
	if !HasErrors(diags) {
		t.Fatalf("corrupted counts not diagnosed:\n%s", msgs(diags))
	}
}

// TestProfileConsistencyGlobalTable lints a profile without a global table
// (the pipeline's) and one with the paper's 9-bit table: both are clean,
// and only the second has a global table whose recorded total is checked.
func TestProfileConsistencyGlobalTable(t *testing.T) {
	prog, _ := mkFunc(t, 1, nil)
	bare := profile.New(2, profile.Options{})
	full := profile.New(2, profile.Options{LocalK: 9, GlobalK: 9, PathM: 3})
	for i := 0; i < 40; i++ {
		bare.RecordBranch(int32(i%2), i%3 == 0)
		full.RecordBranch(int32(i%2), i%3 == 0)
	}
	if bare.Global != nil {
		t.Fatal("a profile without GlobalK folded a global table")
	}
	for name, p := range map[string]*profile.Profile{"no global table": bare, "9/9/3": full} {
		if diags := Lint(prog, nil, p); len(diags) != 0 {
			t.Fatalf("%s: consistent profile diagnosed:\n%s", name, msgs(diags))
		}
	}
	// An event only the global table saw.
	full.Global.RecordBranch(0, true)
	diags := Lint(prog, nil, full)
	if d := FirstError(diags); d == nil || !strings.Contains(d.Msg, "global history") {
		t.Fatalf("global table out of step with the counts not diagnosed:\n%s", msgs(diags))
	}
}
