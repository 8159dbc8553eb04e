package replicate

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/statemachine"
)

// pipeline compiles src, profiles it, selects machines with maxStates, and
// returns everything needed to apply and measure.
type pipelineResult struct {
	orig    *ir.Program
	prof    *profile.Profile
	feats   []predict.SiteFeatures
	choices []statemachine.Choice
	preds   []ir.Prediction
	baseRet int64
	baseSum uint64
}

func runPipeline(t *testing.T, src string, opts statemachine.Options) *pipelineResult {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	n := prog.NumberBranches(true)
	prof := profile.New(n, profile.Options{})
	m := interp.New(prog)
	m.Hook = interp.BranchHook(prof)
	ret, err := m.Run()
	if err != nil {
		t.Fatalf("profile run: %v", err)
	}
	feats := predict.Analyze(prog)
	choices := statemachine.Select(prof, feats, opts)
	preds := predict.ProfileStatic(prof.Counts).Preds
	return &pipelineResult{
		orig: prog, prof: prof, feats: feats, choices: choices,
		preds: preds, baseRet: ret, baseSum: m.Checksum,
	}
}

// applyAndMeasure clones, replicates, verifies semantics, and returns the
// measured misprediction rate plus stats.
func applyAndMeasure(t *testing.T, p *pipelineResult) (float64, *Stats, *ir.Program) {
	t.Helper()
	clone := ir.CloneProgram(p.orig)
	st, err := Apply(clone, p.choices, p.preds)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	m := interp.New(clone)
	ret, err := m.Run()
	if err != nil {
		t.Fatalf("transformed run: %v", err)
	}
	if ret != p.baseRet || m.Checksum != p.baseSum {
		t.Fatalf("semantics changed: ret %d→%d checksum %d→%d",
			p.baseRet, ret, p.baseSum, m.Checksum)
	}
	if m.Predicted == 0 {
		t.Fatal("no predicted branches executed")
	}
	return 100 * float64(m.Mispredicted) / float64(m.Predicted), st, clone
}

// baselineRate measures the profile-only static prediction rate.
func baselineRate(t *testing.T, p *pipelineResult) float64 {
	t.Helper()
	clone := ir.CloneProgram(p.orig)
	Annotate(clone, p.preds)
	m := interp.New(clone)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return 100 * float64(m.Mispredicted) / float64(m.Predicted)
}

const alternatingSrc = `
func main() int {
    var s int = 0;
    for var i int = 0; i < 2000; i = i + 1 {
        if i % 2 == 0 {
            s = s + 1;
        } else {
            s = s + 2;
        }
    }
    print(s);
    return s;
}`

func TestLoopReplicationAlternatingBranch(t *testing.T) {
	p := runPipeline(t, alternatingSrc, statemachine.Options{MaxStates: 2, MaxPathLen: 1})
	base := baselineRate(t, p)
	if base < 20 {
		t.Fatalf("baseline rate %.2f%% — alternating branch should hurt profile", base)
	}
	got, st, _ := applyAndMeasure(t, p)
	if got > 1.0 {
		t.Fatalf("replicated rate %.2f%%, want near 0 (baseline %.2f%%)", got, base)
	}
	if st.LoopApplied == 0 {
		t.Fatalf("no loop machine applied: %+v", st)
	}
	if st.InstrsAfter <= st.InstrsBefore {
		t.Fatal("replication must grow the code")
	}
}

func TestLoopReplicationPrunesUnreachableCopies(t *testing.T) {
	p := runPipeline(t, alternatingSrc, statemachine.Options{MaxStates: 2, MaxPathLen: 1})
	_, st, prog := applyAndMeasure(t, p)
	// The two-state copy of the loop would double the loop body; pruning
	// of cross-copy-unreachable blocks (the paper's discarded 2b/3a) must
	// keep growth below a strict doubling of the whole program.
	if f := st.SizeFactor(); f >= 2.0 {
		t.Fatalf("size factor %.2f — pruning did not happen", f)
	}
	for _, f := range prog.Funcs {
		if err := prog.Validate(); err != nil {
			t.Fatalf("func %s invalid: %v", f.Name, err)
		}
	}
}

func TestExitMachineReplicationCountedLoop(t *testing.T) {
	src := `
func main() int {
    var s int = 0;
    for var i int = 0; i < 500; i = i + 1 {
        for var j int = 0; j < 4; j = j + 1 {
            s = s + j;
        }
    }
    print(s);
    return s;
}`
	p := runPipeline(t, src, statemachine.Options{MaxStates: 6, MaxPathLen: 1, DisablePath: true})
	base := baselineRate(t, p)
	got, st, _ := applyAndMeasure(t, p)
	if st.ExitApplied == 0 && st.LoopApplied == 0 {
		t.Fatalf("no machine applied: %+v", st)
	}
	// The inner loop's exit branch (miss rate 20% under profile) becomes
	// almost perfectly predictable.
	if got > base/2 {
		t.Fatalf("rate %.2f%% vs baseline %.2f%% — exit machine ineffective", got, base)
	}
	if got > 2.0 {
		t.Fatalf("rate %.2f%%, want near 0", got)
	}
}

const correlatedSrc = `
var seed int = 12345;

func rand() int {
    seed = (seed * 1103515245 + 12345) % 2147483648;
    if seed < 0 { seed = -seed; }
    return seed;
}

func main() int {
    var a int = 0;
    for var i int = 0; i < 3000; i = i + 1 {
        var x int = 0;
        if (rand() >> 7) % 2 == 0 {
            x = 1;
            a = a + 1;
        }
        if x == 1 {
            a = a + 2;
        }
    }
    print(a);
    return a;
}`

func TestPathReplicationCorrelatedBranch(t *testing.T) {
	p := runPipeline(t, correlatedSrc, statemachine.Options{
		MaxStates: 3, DisableLoop: true, DisableExit: true,
	})
	// The second if must have been selected as a correlated branch.
	var pathChosen bool
	for _, c := range p.choices {
		if c.Kind == statemachine.KindPath {
			pathChosen = true
		}
	}
	if !pathChosen {
		t.Fatal("no correlated machine selected")
	}
	base := baselineRate(t, p)
	got, st, _ := applyAndMeasure(t, p)
	if st.PathApplied == 0 || st.PathEdgesRouted == 0 {
		t.Fatalf("path replication did not route edges: %+v", st)
	}
	// The x==1 branch flips from ~50% mispredicted to ~0; overall rate
	// must drop clearly below the baseline.
	if got >= base-5 {
		t.Fatalf("rate %.2f%% vs baseline %.2f%% — correlation not exploited", got, base)
	}
}

func TestAnnotateSetsAllBranches(t *testing.T) {
	p := runPipeline(t, alternatingSrc, statemachine.Options{MaxStates: 2, MaxPathLen: 1})
	clone := ir.CloneProgram(p.orig)
	Annotate(clone, p.preds)
	for _, f := range clone.Funcs {
		for _, b := range f.Blocks {
			if b.Term.Op == ir.TermBr && b.Term.Pred == ir.PredNone {
				t.Fatalf("branch %d unannotated", b.Term.Site)
			}
		}
	}
}

func TestSemanticsPreservedAcrossPrograms(t *testing.T) {
	srcs := map[string]string{
		"nestedLoops": `
func main() int {
    var s int = 0;
    for var i int = 0; i < 60; i = i + 1 {
        for var j int = 0; j < i % 7; j = j + 1 {
            if (i + j) % 3 == 0 { s = s + j; } else { s = s - 1; }
        }
    }
    print(s);
    return s;
}`,
		"recursion": `
var depth int = 0;

func fib(n int) int {
    depth = depth + 1;
    if n < 2 { return n; }
    return fib(n-1) + fib(n-2);
}

func main() int {
    var r int = fib(15);
    print(r);
    print(depth);
    return r;
}`,
		"whileBreakContinue": `
func main() int {
    var s int = 0;
    var i int = 0;
    while true {
        i = i + 1;
        if i > 300 { break; }
        if i % 3 == 0 { continue; }
        if i % 5 == 0 && i % 2 == 1 { s = s + 10; } else { s = s + 1; }
    }
    print(s);
    return s;
}`,
		"arrays": `
var buf [64]int;

func main() int {
    var s int = 0;
    for var i int = 0; i < 640; i = i + 1 {
        buf[i % 64] = buf[i % 64] + i;
        if buf[i % 64] % 2 == 0 { s = s + 1; }
    }
    print(s);
    return s;
}`,
	}
	for name, src := range srcs {
		for _, n := range []int{2, 3, 5, 8} {
			p := runPipeline(t, src, statemachine.Options{MaxStates: n})
			got, _, prog := applyAndMeasure(t, p)
			_ = got
			if err := prog.Validate(); err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
		}
		_ = name
	}
}

func TestReplicationImprovesOrMatchesBaseline(t *testing.T) {
	// Property over the test programs: measured rate after replication
	// should not be dramatically worse than the profile baseline (small
	// regressions are possible since machines are trained on the same
	// trace they predict, but catastrophes indicate transform bugs).
	srcs := []string{alternatingSrc, correlatedSrc}
	for _, src := range srcs {
		p := runPipeline(t, src, statemachine.Options{MaxStates: 4, MaxPathLen: 1})
		base := baselineRate(t, p)
		got, _, _ := applyAndMeasure(t, p)
		if got > base+5 {
			t.Fatalf("replication made things worse: %.2f%% vs %.2f%%", got, base)
		}
	}
}

func TestMultiplicativeGrowthSameLoop(t *testing.T) {
	// Two replicated branches in one loop multiply the state copies
	// (paper section 6): growth must exceed what either branch alone
	// causes.
	src := `
var seed int = 7;

func rnd() int {
    seed = (seed * 1103515245 + 12345) % 2147483648;
    if seed < 0 { seed = -seed; }
    return seed;
}

func main() int {
    var s int = 0;
    for var i int = 0; i < 2000; i = i + 1 {
        if i % 2 == 0 { s = s + 1; }
        if i % 3 == 0 { s = s + 2; }
    }
    print(s);
    return s;
}`
	p := runPipeline(t, src, statemachine.Options{MaxStates: 3, MaxPathLen: 1, DisablePath: true})
	var machineBranches int
	for _, c := range p.choices {
		if c.Kind != statemachine.KindProfile {
			machineBranches++
		}
	}
	if machineBranches < 2 {
		t.Skipf("only %d machine branches selected", machineBranches)
	}
	_, both, _ := applyAndMeasure(t, p)

	// Apply only the first machine branch.
	single := make([]statemachine.Choice, len(p.choices))
	copy(single, p.choices)
	found := false
	for i := range single {
		if single[i].Kind != statemachine.KindProfile {
			if found {
				single[i] = statemachine.Choice{Site: single[i].Site, Kind: statemachine.KindProfile}
			}
			found = true
		}
	}
	cl := ir.CloneProgram(p.orig)
	stSingle, err := Apply(cl, single, p.preds)
	if err != nil {
		t.Fatal(err)
	}
	growBoth := both.InstrsAfter - both.InstrsBefore
	growSingle := stSingle.InstrsAfter - stSingle.InstrsBefore
	if growBoth <= growSingle {
		t.Fatalf("expected multiplicative growth: both=%d single=%d", growBoth, growSingle)
	}
}

func TestApplyIsIdempotentOnProfileChoices(t *testing.T) {
	p := runPipeline(t, alternatingSrc, statemachine.Options{MaxStates: 2, MaxPathLen: 1})
	for i := range p.choices {
		p.choices[i] = statemachine.Choice{Site: p.choices[i].Site, Kind: statemachine.KindProfile}
	}
	clone := ir.CloneProgram(p.orig)
	st, err := Apply(clone, p.choices, p.preds)
	if err != nil {
		t.Fatal(err)
	}
	if st.InstrsAfter != st.InstrsBefore {
		t.Fatal("profile-only choices must not change code size")
	}
}

func TestBranchyFuncs(t *testing.T) {
	prog, err := lang.Compile(`
func leaf() int { return 1; }
func brancher(x int) int { if x > 0 { return 1; } return 0; }
func caller(x int) int { return brancher(x); }
func main() int { return leaf() + caller(3); }
`)
	if err != nil {
		t.Fatal(err)
	}
	prog.NumberBranches(true)
	br := branchyFuncs(prog)
	get := func(name string) bool { return br[prog.Func(name).ID] }
	if get("leaf") {
		t.Fatal("leaf must not be branchy")
	}
	if !get("brancher") || !get("caller") || !get("main") {
		t.Fatal("transitive branchiness wrong")
	}
}

func TestStatsString(t *testing.T) {
	st := &Stats{InstrsBefore: 100, InstrsAfter: 130}
	if st.SizeFactor() != 1.3 {
		t.Fatalf("size factor = %v", st.SizeFactor())
	}
	empty := &Stats{}
	if empty.SizeFactor() != 1 {
		t.Fatal("empty stats size factor must be 1")
	}
	if !strings.Contains("x", "x") {
		t.Fatal("sanity")
	}
}
