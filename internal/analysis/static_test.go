package analysis

import (
	"math"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/profile"
)

func TestCombineDS(t *testing.T) {
	if got := combineDS(0.5, 0.8); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("0.5 is not the identity: combineDS(0.5, 0.8) = %g", got)
	}
	if a, b := combineDS(0.7, 0.9), combineDS(0.9, 0.7); math.Abs(a-b) > 1e-12 {
		t.Fatalf("not symmetric: %g vs %g", a, b)
	}
	if got := combineDS(0.8, 0.8); got <= 0.8 {
		t.Fatalf("agreeing evidence must reinforce: combineDS(0.8, 0.8) = %g", got)
	}
	if got := combineDS(0.8, 0.2); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("balanced disagreement must cancel: combineDS(0.8, 0.2) = %g", got)
	}
	// Associativity, which lets heuristics fire in any order.
	a := combineDS(combineDS(0.6, 0.7), 0.8)
	b := combineDS(0.6, combineDS(0.7, 0.8))
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("not associative: %g vs %g", a, b)
	}
}

const loopSrc = `
var acc int;

func main() int {
    for var i int = 0; i < 100; i = i + 1 {
        if i % 7 == 0 {
            acc = acc + 1;
        }
    }
    print(acc);
    return acc;
}
`

func compileNumbered(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumberBranches(true) == 0 {
		t.Fatal("no branch sites")
	}
	return prog
}

func TestHeuristicSitesLoop(t *testing.T) {
	prog := compileNumbered(t, loopSrc)
	hs := HeuristicSites(NewContext(prog))
	if len(hs) == 0 {
		t.Fatal("no sites")
	}
	// The loop's closing branch must fire a loop heuristic; the equality
	// test inside the loop (no loop heuristic of its own — both arms stay
	// in the loop) must combine its guard/opcode evidence toward not-taken.
	var sawLoop, sawEqGuard bool
	for i := range hs {
		sh := &hs[i]
		if int32(i) != sh.Site {
			t.Fatalf("site %d indexed at %d", sh.Site, i)
		}
		fired := map[Heuristic]bool{}
		for _, h := range sh.Fired {
			fired[h] = true
			if (h == HeurLoopBranch || h == HeurLoopExit) && sh.LoopDepth == 0 {
				t.Fatalf("site %d fires %s outside a loop", sh.Site, h)
			}
		}
		sawLoop = sawLoop || fired[HeurLoopBranch] || fired[HeurLoopExit]
		if fired[HeurGuard] && fired[HeurOpcode] &&
			!fired[HeurLoopBranch] && !fired[HeurLoopExit] && !fired[HeurLoopHeader] {
			sawEqGuard = true
			if sh.Prob >= 0.5 {
				t.Fatalf("equality guard site must predict not-taken, got p=%g (fired %v)", sh.Prob, sh.Fired)
			}
		}
		if got := sh.Confidence; got < 0 || got > 1 {
			t.Fatalf("confidence %g out of range", got)
		}
	}
	if !sawLoop {
		t.Fatal("no loop heuristic fired on a loop program")
	}
	if !sawEqGuard {
		t.Fatal("guard heuristic did not fire on the equality-to-constant test")
	}
}

const decidedSrc = `
var out int;

func main() int {
    var x int = 10;
    if x > 100 {
        out = 1;
    }
    var s int = 0;
    for var i int = 0; i < 5; i = i + 1 {
        s = s + i;
    }
    if x < 100 {
        s = s + 1;
    }
    print(s);
    return out;
}
`

func TestSCCPDecidesConstantBranches(t *testing.T) {
	prog := compileNumbered(t, decidedSrc)
	res, err := SCCP(prog)
	if err != nil {
		t.Fatal(err)
	}
	var never, always, none int
	for _, f := range res.Facts {
		switch f {
		case FactNeverTaken:
			never++
		case FactAlwaysTaken:
			always++
		case FactNone:
			none++
		}
	}
	if never != 1 {
		t.Fatalf("want exactly one never-taken site (x > 100), got %d: %v", never, res.Facts)
	}
	if always != 1 {
		t.Fatalf("want exactly one always-taken site (x < 100), got %d: %v", always, res.Facts)
	}
	if none == 0 {
		t.Fatalf("the data-dependent loop branch must stay undecided: %v", res.Facts)
	}
}

func TestBuildStaticReportOverridesDecided(t *testing.T) {
	prog := compileNumbered(t, decidedSrc)
	r, err := BuildStaticReport(prog)
	if err != nil {
		t.Fatal(err)
	}
	if r.Decided() != 2 {
		t.Fatalf("Decided() = %d, want 2", r.Decided())
	}
	preds := r.Predictions()
	skip := r.DecidedSites()
	if len(preds) != len(r.Sites) || len(skip) != len(r.Sites) {
		t.Fatal("vector lengths disagree with site count")
	}
	for i := range r.Sites {
		s := &r.Sites[i]
		switch s.Fact {
		case FactAlwaysTaken:
			if s.Prob != 1 || s.Confidence != 1 || preds[i] != ir.PredTaken || !skip[i] {
				t.Fatalf("always-taken site %d not overridden: %+v", i, s)
			}
		case FactNeverTaken:
			if s.Prob != 0 || s.Confidence != 1 || preds[i] != ir.PredNotTaken || !skip[i] {
				t.Fatalf("dead-branch site %d not overridden: %+v", i, s)
			}
		default:
			if skip[i] {
				t.Fatalf("undecided site %d marked decided", i)
			}
		}
	}
	var sb strings.Builder
	FormatSiteTable(&sb, "decided", r)
	if !strings.Contains(sb.String(), "always-taken") || !strings.Contains(sb.String(), "never-taken") {
		t.Fatalf("report table missing facts:\n%s", sb.String())
	}
}

func TestStaticPredictPassDiagnostics(t *testing.T) {
	prog := compileNumbered(t, decidedSrc)
	m := &Manager{Passes: []Pass{StaticPredict{}}}
	diags := m.Run(NewContext(prog))
	var dead, taken int
	for _, d := range diags {
		if d.Sev != Warning {
			t.Fatalf("statically-decided branches must be warnings, got %s", d)
		}
		if strings.Contains(d.Msg, "dead-branch") {
			dead++
		}
		if strings.Contains(d.Msg, "always-taken") {
			taken++
		}
	}
	if dead != 1 || taken != 1 {
		t.Fatalf("want one dead-branch and one always-taken diagnostic, got %d/%d:\n%v", dead, taken, diags)
	}
}

// TestSCCPSoundOnExamples cross-checks every verdict on the bundled example
// programs against an actual interpreter run: a decided branch must never be
// observed going the other way.
func TestSCCPSoundOnExamples(t *testing.T) {
	for _, src := range []string{loopSrc, decidedSrc} {
		prog := compileNumbered(t, src)
		r, err := BuildStaticReport(prog)
		if err != nil {
			t.Fatal(err)
		}
		n := len(r.Sites)
		prof := profile.New(n, profile.Options{})
		ref := interp.New(prog)
		ref.MaxSteps = 2_000_000
		ref.Hook = interp.BranchHook(prof)
		if _, err := ref.Run(); err != nil {
			t.Fatal(err)
		}
		for i := range r.Sites {
			switch r.Sites[i].Fact {
			case FactAlwaysTaken:
				if prof.Counts.NotTaken[i] != 0 {
					t.Fatalf("site %d proven always-taken but observed not-taken %d times", i, prof.Counts.NotTaken[i])
				}
			case FactNeverTaken:
				if prof.Counts.Taken[i] != 0 {
					t.Fatalf("site %d proven never-taken but observed taken %d times", i, prof.Counts.Taken[i])
				}
			case FactUnreachable:
				if prof.Counts.Taken[i]+prof.Counts.NotTaken[i] != 0 {
					t.Fatalf("site %d proven unreachable but executed", i)
				}
			}
		}
	}
}

// TestContextCacheInvalidation pins the regression: mutating a function
// after a Graph/Loops lookup must not serve the stale structures.
func TestContextCacheInvalidation(t *testing.T) {
	// b0 br (b1, b2); b1 jmp b2; b2 ret — no loops.
	_, f := mkFunc(t, 3, map[int][]int{0: {1, 2}, 1: {2}})
	c := NewContext(nil)
	g := c.Graph(f)
	if lf := c.Loops(f); lf.InnermostLoop(f.Blocks[0]) != nil {
		t.Fatal("no loop expected before mutation")
	}
	// Redirect b1's jump back to b0: now a natural loop {b0, b1}.
	f.Blocks[1].Term.Then = f.Blocks[0]
	g2 := c.Graph(f)
	if g2 == g {
		t.Fatal("stale Graph served after mutation")
	}
	if !g2.IsBackEdge(f.Blocks[1], f.Blocks[0]) {
		t.Fatal("rebuilt graph misses the new back edge")
	}
	lf2 := c.Loops(f)
	l := lf2.InnermostLoop(f.Blocks[1])
	if l == nil || l.Header != f.Blocks[0] {
		t.Fatalf("rebuilt loop forest misses the new loop: %+v", l)
	}
	// Unchanged function: the cache still serves the same structures.
	if c.Graph(f) != g2 || c.Loops(f) != lf2 {
		t.Fatal("cache rebuilt without a mutation")
	}
}
