package predict

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/trace"
)

func feedString(c trace.Collector, site int32, outcomes string) {
	for _, ch := range outcomes {
		c.RecordBranch(site, ch == '1')
	}
}

func evalString(p Predictor, site int32, outcomes string) *Eval {
	e := &Eval{P: p}
	feedString(e, site, outcomes)
	return e
}

func TestLastDirection(t *testing.T) {
	// After the first event, last-direction mispredicts exactly at each
	// direction change.
	e := evalString(NewLastDirection(1), 0, "1110011")
	// initial pred not-taken: events 1(miss),1,1,0(miss),0,1(miss),1 → 3
	if e.Misses != 3 || e.Total != 7 {
		t.Fatalf("misses=%d total=%d", e.Misses, e.Total)
	}
}

func TestTwoBitHysteresis(t *testing.T) {
	// A single anomaly in a long taken run costs one miss, not two.
	p := NewTwoBit(1)
	e := &Eval{P: p}
	feedString(e, 0, "111111")
	missesBefore := e.Misses
	feedString(e, 0, "0")
	feedString(e, 0, "1111")
	// the "0" is one miss; the next "1" is still predicted taken.
	if e.Misses != missesBefore+1 {
		t.Fatalf("misses=%d, want %d (hysteresis)", e.Misses, missesBefore+1)
	}
	// Last-direction pays twice on the same sequence.
	e2 := evalString(NewLastDirection(1), 0, "11111101111")
	if e2.Misses != missesBefore+2 {
		t.Fatalf("last-direction misses=%d, want %d", e2.Misses, missesBefore+2)
	}
}

func TestTwoBitSaturation(t *testing.T) {
	p := NewTwoBit(1)
	for i := 0; i < 100; i++ {
		p.Update(0, true)
	}
	if !p.Predict(0) {
		t.Fatal("saturated-up counter must predict taken")
	}
	p.Update(0, false)
	if !p.Predict(0) {
		t.Fatal("one not-taken must not flip a saturated counter")
	}
	p.Update(0, false)
	if p.Predict(0) {
		t.Fatal("two not-taken must flip it")
	}
}

func TestTwoLevelLearnsAlternation(t *testing.T) {
	// An alternating branch defeats a 2-bit counter but a two-level
	// predictor learns it perfectly after warm-up.
	p := NewTwoLevel(PaperTwoLevel())
	e := &Eval{P: p}
	const n = 2000
	for i := 0; i < n; i++ {
		e.RecordBranch(0, i%2 == 0)
	}
	if e.Rate() > 2.0 {
		t.Fatalf("two-level on alternation: %.2f%%, want near 0", e.Rate())
	}
	tb := &Eval{P: NewTwoBit(1)}
	for i := 0; i < n; i++ {
		tb.RecordBranch(0, i%2 == 0)
	}
	if tb.Rate() < 40 {
		t.Fatalf("2-bit on alternation: %.2f%%, should be terrible", tb.Rate())
	}
}

func TestTwoLevelCorrelation(t *testing.T) {
	// Branch 1 copies branch 0's outcome; a global-history predictor
	// exploits it.
	p := NewTwoLevel(TwoLevelConfig{
		HistScope: ScopeGlobal, HistBits: 4,
		PatScope: ScopePerBranch, PatEntries: 16,
	})
	e := &Eval{P: p}
	x := uint32(99)
	var miss1, tot1 uint64
	for i := 0; i < 5000; i++ {
		x = x*1664525 + 1013904223
		o := x&0x8000 != 0
		e.RecordBranch(0, o)
		before := e.Misses
		e.RecordBranch(1, o)
		miss1 += e.Misses - before
		tot1++
	}
	if r := 100 * float64(miss1) / float64(tot1); r > 5 {
		t.Fatalf("correlated branch rate = %.2f%%, want < 5%%", r)
	}
}

func TestTwoLevelAliasing(t *testing.T) {
	// Per-branch scope with 1 entry forces both branches onto one history
	// register — a smoke test that set hashing is exercised.
	p := NewTwoLevel(TwoLevelConfig{
		HistScope: ScopePerBranch, HistEntries: 1, HistBits: 2,
		PatScope: ScopeSet, PatEntries: 1,
	})
	e := &Eval{P: p}
	for i := 0; i < 100; i++ {
		e.RecordBranch(0, true)
		e.RecordBranch(17, false)
	}
	if e.Total != 200 {
		t.Fatal("eval total wrong")
	}
}

func TestGShare(t *testing.T) {
	p := NewGShare(12)
	e := &Eval{P: p}
	for i := 0; i < 4000; i++ {
		e.RecordBranch(3, i%2 == 0)
	}
	if e.Rate() > 2 {
		t.Fatalf("gshare on alternation: %.2f%%", e.Rate())
	}
	p.Reset()
	if p.Predict(3) {
		t.Fatal("reset gshare must predict not-taken initially")
	}
}

func TestResetRestores(t *testing.T) {
	preds := []Predictor{
		NewLastDirection(4),
		NewTwoBit(4),
		NewTwoLevel(PaperTwoLevel()),
		NewGShare(8),
	}
	for _, p := range preds {
		for i := 0; i < 50; i++ {
			p.Update(1, true)
		}
		was := p.Predict(1)
		if !was {
			t.Fatalf("%s did not learn taken", p.Name())
		}
		p.Reset()
		if p.Predict(1) {
			t.Fatalf("%s still predicts taken after Reset", p.Name())
		}
	}
}

// compileFeatures compiles a BL snippet and returns its features.
func compileFeatures(t *testing.T, src string) (*ir.Program, []SiteFeatures) {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog, Analyze(prog)
}

func TestAnalyzeLoopFeatures(t *testing.T) {
	prog, fts := compileFeatures(t, `
func main() int {
    var s int = 0;
    var i int = 0;
    while i < 10 {
        s = s + i;
        i = i + 1;
    }
    return s;
}`)
	_ = prog
	if len(fts) != 1 {
		t.Fatalf("features = %d, want 1", len(fts))
	}
	ft := fts[0]
	if ft.LoopDepth == 0 {
		t.Fatal("loop branch not marked in-loop")
	}
	// while-head branch: taken stays in loop, not-taken exits.
	if ft.TakenExits || !ft.ElseExits {
		t.Fatalf("exit flags wrong: %+v", ft)
	}
	if ft.CmpOp != ir.OpLtI {
		t.Fatalf("CmpOp = %v", ft.CmpOp)
	}
}

func TestAnalyzeCallReturnStore(t *testing.T) {
	_, fts := compileFeatures(t, `
var g int;
func helper() int { return 1; }
func main() int {
    var x int = 3;
    if x > 0 {
        g = helper();
    }
    return g;
}`)
	if len(fts) != 1 {
		t.Fatalf("features = %d, want 1", len(fts))
	}
	ft := fts[0]
	if !ft.TakenCall {
		t.Fatal("then-block call not detected")
	}
	if !ft.TakenStore {
		t.Fatal("then-block store not detected")
	}
	if ft.ElseCall || ft.ElseStore {
		t.Fatal("else side should be clean")
	}
}

func TestStaticScore(t *testing.T) {
	c := trace.NewCounts(2)
	// site 0: 90 taken / 10 not; site 1: 5 taken / 95 not.
	for i := 0; i < 90; i++ {
		c.RecordBranch(0, true)
	}
	for i := 0; i < 10; i++ {
		c.RecordBranch(0, false)
	}
	for i := 0; i < 5; i++ {
		c.RecordBranch(1, true)
	}
	for i := 0; i < 95; i++ {
		c.RecordBranch(1, false)
	}
	at := AlwaysTaken(2).Score(c)
	if at.Misses != 10+95 || at.Total != 200 {
		t.Fatalf("always taken: %+v", at)
	}
	ant := AlwaysNotTaken(2).Score(c)
	if ant.Misses != 90+5 {
		t.Fatalf("always not taken: %+v", ant)
	}
	prof := ProfileResult(c)
	if prof.Misses != 10+5 || prof.Total != 200 {
		t.Fatalf("profile: %+v", prof)
	}
	ps := ProfileStatic(c)
	if ps.Preds[0] != ir.PredTaken || ps.Preds[1] != ir.PredNotTaken {
		t.Fatalf("profile static preds: %v", ps.Preds)
	}
	if got := ps.Score(c); got.Misses != prof.Misses {
		t.Fatalf("profile static score %d != profile %d", got.Misses, prof.Misses)
	}
}

func TestBallLarusOnRealProgram(t *testing.T) {
	// A loop program where the loop heuristic should dominate: Ball-Larus
	// must beat always-taken on the observed counts.
	prog, err := lang.Compile(`
var sink int;
func main() int {
    var s int = 0;
    for var i int = 0; i < 1000; i = i + 1 {
        if i % 100 == 0 {
            sink = sink + 1;
        }
        s = s + i;
    }
    return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	fts := Analyze(prog)
	n := len(fts)
	counts := trace.NewCounts(n)
	runProgram(t, prog, counts)
	bl := BallLarus(fts).Score(counts)
	bt := BackwardTaken(fts).Score(counts)
	if bl.Total == 0 {
		t.Fatal("no branches executed")
	}
	// The for-loop branch is the hot one: both heuristics should predict
	// it correctly giving low rates; sanity-bound them.
	if bl.Rate() > 25 {
		t.Fatalf("ball-larus rate %.2f%% too high", bl.Rate())
	}
	if bt.Rate() > 25 {
		t.Fatalf("backward-taken rate %.2f%% too high", bt.Rate())
	}
}

func runProgram(t *testing.T, prog *ir.Program, c trace.Collector) {
	t.Helper()
	m := interp.New(prog)
	m.Hook = interp.BranchHook(c)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

// recordAll delivers one branch event to every collector.
func recordAll(site int32, taken bool, cs ...trace.Collector) {
	for _, c := range cs {
		c.RecordBranch(site, taken)
	}
}

func TestSemiStaticHierarchy(t *testing.T) {
	// A branch alternating T,N,T,N... : profile ≈ 50%, 1-bit loop ≈ 0%.
	n := 1
	c := trace.NewCounts(n)
	st := profile.NewStreams(n)
	gh := profile.NewGlobalHistory(n, 1)
	for i := 0; i < 1000; i++ {
		recordAll(0, i%2 == 0, c, st, gh)
	}
	lh := profile.LocalFromStreams(st, 1)
	prof := ProfileResult(c)
	loop := LoopResult(lh)
	if prof.Rate() < 45 {
		t.Fatalf("profile on alternation = %.2f%%, want ~50%%", prof.Rate())
	}
	if loop.Rate() > 1 {
		t.Fatalf("1-bit loop on alternation = %.2f%%, want ~0%%", loop.Rate())
	}
	corr := CorrelationResult(gh)
	if corr.Rate() > 1 { // single branch: global history == local history
		t.Fatalf("correlation = %.2f%%", corr.Rate())
	}
	lc, improved := LoopCorrelationResult(lh, gh, c)
	if lc.Rate() > 1 {
		t.Fatalf("loop-correlation = %.2f%%", lc.Rate())
	}
	if !improved[0] {
		t.Fatal("site 0 must be marked improved")
	}
}

func TestLoopCorrelationPicksBest(t *testing.T) {
	// Two branches: site 0 alternates (loop-predictable), site 1 copies
	// site 0 (correlation-predictable via global history but local history
	// ALSO sees alternation here; use a random copy source instead).
	n := 2
	c := trace.NewCounts(n)
	st := profile.NewStreams(n)
	gh := profile.NewGlobalHistory(n, 1)
	x := uint32(7)
	for i := 0; i < 3000; i++ {
		x = x*1664525 + 1013904223
		o := x&0x40000 != 0
		recordAll(0, o, c, st, gh)
		recordAll(1, o, c, st, gh) // copies previous branch
	}
	lh := profile.LocalFromStreams(st, 2)
	lc, _ := LoopCorrelationResult(lh, gh, c)
	corr := CorrelationResult(gh)
	loop := LoopResult(lh)
	// Combined must be at least as good as both components.
	if lc.Rate() > corr.Rate()+0.01 && lc.Rate() > loop.Rate()+0.01 {
		t.Fatalf("loop-correlation %.2f%% worse than both parts (%.2f%%, %.2f%%)",
			lc.Rate(), loop.Rate(), corr.Rate())
	}
}

func TestNames(t *testing.T) {
	for _, p := range []Predictor{
		NewLastDirection(1), NewTwoBit(1), NewTwoLevel(PaperTwoLevel()), NewGShare(4),
	} {
		if p.Name() == "" {
			t.Fatal("empty name")
		}
	}
	r := Result{Name: "x", Misses: 1, Total: 8}
	if !strings.Contains(r.String(), "12.50%") {
		t.Fatalf("result string: %s", r.String())
	}
}

func TestTwoLevelConfigValidation(t *testing.T) {
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("want panic")
			}
		}()
		f()
	}
	mustPanic(func() { NewTwoLevel(TwoLevelConfig{HistBits: 0}) })
	mustPanic(func() { NewTwoLevel(TwoLevelConfig{HistBits: 4, HistScope: ScopeSet}) })
	mustPanic(func() {
		NewTwoLevel(TwoLevelConfig{HistBits: 4, PatScope: ScopePerBranch})
	})
	mustPanic(func() { NewGShare(0) })
}
