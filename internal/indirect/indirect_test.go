package indirect_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/indirect"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/progen"
	"repro/internal/trace"
)

// The clustering transform's contract is dynamic as well as structural:
// a clustered program must produce byte-identical traces to the original
// on complete runs, because a taken clustering test emits the dispatch's
// switch event and the residual keeps the site identity. This suite pins
// that, plus the structural Verify pass, over hand-written dispatch
// workloads and generated programs.

const dispatchSrc = `
var acc int;
func step(op int, x int) int {
	switch op {
	case 0:
		return x + 1;
	case 1:
		return x * 2;
	case 2:
		return x - 3;
	case 3:
		return 0 - x;
	default:
		return x;
	}
	return x;
}
func main() int {
	for var i int = 0; i < 600; i = i + 1 {
		// A skewed opcode stream: outcome 0 dominates, outcome 1 second.
		var op int = 0;
		if i % 4 == 1 {
			op = 1;
		}
		if i % 16 == 7 {
			op = 2;
		}
		if i % 64 == 15 {
			op = 9;
		}
		acc = step(op, acc);
	}
	print(acc);
	return acc;
}`

func compileSrc(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("lang.Compile: %v", err)
	}
	prog.NumberBranches(true)
	return prog
}

// profileTargets runs prog on the interpreter and collects its per-site
// switch target distribution, keyed by Orig as the transform expects.
func profileTargets(t *testing.T, prog *ir.Program) *trace.TargetCounts {
	t.Helper()
	tc := trace.NewTargetCounts(0)
	m := interp.New(prog)
	m.MaxSteps = 5_000_000
	m.SwHook = func(tm *ir.Term, outcome int32) { tc.RecordSwitch(tm.Orig, outcome) }
	// Limit hits and traps leave a truncated profile, which is still a
	// valid (if weaker) guide for the transform.
	m.Run()
	return tc
}

type obs struct {
	ret          int64
	checksum     uint64
	trace        []byte
	branches     uint64
	predicted    uint64
	mispredicted uint64
}

func runInterp(t *testing.T, prog *ir.Program, maxSteps uint64) (obs, error) {
	t.Helper()
	m := interp.New(prog)
	m.MaxSteps = maxSteps
	s := trace.NewSlab(0)
	m.Rec = s
	ret, err := m.Run()
	s.Seal()
	var buf bytes.Buffer
	if _, werr := s.WriteTo(&buf); werr != nil {
		t.Fatalf("interp slab: %v", werr)
	}
	return obs{ret, m.Checksum, buf.Bytes(), m.Branches, m.Predicted, m.Mispredicted}, err
}

// diffCluster checks the full dynamic contract between an original program
// and its clustered version: identical return value, checksum, and trace
// bytes. Both runs must complete naturally (the clustered program executes
// more steps and conditional branches, so truncated runs are not
// comparable); it returns false without failing when the original cannot
// finish within maxSteps.
func diffCluster(t *testing.T, orig, clustered *ir.Program, maxSteps uint64) bool {
	t.Helper()
	io, oerr := runInterp(t, orig, maxSteps)
	if errors.Is(oerr, interp.ErrLimit) {
		return false
	}
	ic, cerr := runInterp(t, clustered, 4*maxSteps)
	if (oerr == nil) != (cerr == nil) {
		t.Fatalf("error mismatch: original=%v clustered=%v", oerr, cerr)
	}
	// Splicing renumbers downstream blocks, so trap positions may name a
	// different block; the trap kind must still agree.
	var ore, cre *interp.RuntimeError
	if errors.As(oerr, &ore) != errors.As(cerr, &cre) || (ore != nil && ore.Msg != cre.Msg) {
		t.Fatalf("trap mismatch: original=%v clustered=%v", oerr, cerr)
	}
	// A trap aborts the run at the same logical point in both programs:
	// everything observable up to it must still agree (the return value is
	// undefined on error).
	if oerr == nil && io.ret != ic.ret {
		t.Errorf("return mismatch: original=%d clustered=%d", io.ret, ic.ret)
	}
	if io.checksum != ic.checksum {
		t.Errorf("checksum mismatch: original=%#x clustered=%#x", io.checksum, ic.checksum)
	}
	if !bytes.Equal(io.trace, ic.trace) {
		t.Errorf("trace bytes differ: original %d bytes, clustered %d bytes", len(io.trace), len(ic.trace))
	}
	return true
}

// cluster profiles prog, clusters a clone, and verifies the provenance.
func cluster(t *testing.T, prog *ir.Program, opts indirect.Options) (*ir.Program, *indirect.Stats, *indirect.Provenance) {
	t.Helper()
	targets := profileTargets(t, prog)
	work := ir.CloneProgram(prog)
	snap := ir.CloneProgram(work)
	stats, prov, err := indirect.Cluster(work, targets, opts)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if errs := indirect.Verify(snap, work, prov); len(errs) > 0 {
		for _, e := range errs {
			t.Errorf("Verify: %v", e)
		}
	}
	return work, stats, prov
}

func TestClusterDispatchLoop(t *testing.T) {
	prog := compileSrc(t, dispatchSrc)
	clustered, stats, prov := cluster(t, prog, indirect.Options{})
	if stats.Clustered != 1 || stats.Tests < 1 {
		t.Fatalf("expected the dispatch switch to cluster: %+v", stats)
	}
	if len(prov.Sites) != 1 {
		t.Fatalf("provenance has %d sites, want 1", len(prov.Sites))
	}
	rec := &prov.Sites[0]
	if rec.Tests[0].Outcome != 0 {
		t.Errorf("hottest test covers outcome %d, want 0", rec.Tests[0].Outcome)
	}
	if rec.Tests[0].Pred != ir.PredTaken {
		t.Errorf("dominant test predicted %v, want taken", rec.Tests[0].Pred)
	}
	if !diffCluster(t, prog, clustered, 5_000_000) {
		t.Fatal("original did not complete")
	}
	if f := stats.SizeFactor(); f <= 1 || f > 1.5 {
		t.Errorf("size factor %.3f out of the expected (1, 1.5] window", f)
	}
}

// TestClusterImprovesPrediction scores the transform the way krallbench
// does: the clustered program must mispredict strictly less than the
// Annotate-only baseline on the skewed dispatch workload.
func TestClusterImprovesPrediction(t *testing.T) {
	prog := compileSrc(t, dispatchSrc)
	targets := profileTargets(t, prog)

	baseline := ir.CloneProgram(prog)
	indirect.Annotate(baseline, targets)
	bo, err := runInterp(t, baseline, 5_000_000)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	clustered := ir.CloneProgram(prog)
	indirect.Annotate(clustered, targets)
	if _, _, err := indirect.Cluster(clustered, targets, indirect.Options{}); err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	co, err := runInterp(t, clustered, 20_000_000)
	if err != nil {
		t.Fatalf("clustered run: %v", err)
	}

	if bo.predicted == 0 || co.predicted == 0 {
		t.Fatalf("no predicted events: baseline=%d clustered=%d", bo.predicted, co.predicted)
	}
	br := float64(bo.mispredicted) / float64(bo.predicted)
	cr := float64(co.mispredicted) / float64(co.predicted)
	if cr >= br {
		t.Errorf("clustering did not improve misprediction: baseline %.4f, clustered %.4f", br, cr)
	}
}

// TestClusterSiteNumberingStable pins the walk-order claim: renumbering a
// clustered program must not move any site.
func TestClusterSiteNumberingStable(t *testing.T) {
	prog := compileSrc(t, dispatchSrc)
	clustered, _, _ := cluster(t, prog, indirect.Options{})
	type key struct{ fi, bi int }
	before := map[key]int32{}
	for fi, f := range clustered.Funcs {
		for bi, b := range f.Blocks {
			before[key{fi, bi}] = b.Term.Site
		}
	}
	clustered.NumberBranches(true)
	for fi, f := range clustered.Funcs {
		for bi, b := range f.Blocks {
			if b.Term.Site != before[key{fi, bi}] {
				t.Fatalf("func %d block %d site moved: %d -> %d", fi, bi, before[key{fi, bi}], b.Term.Site)
			}
		}
	}
}

// TestClusterColdSiteUntouched: a site below MinCount must not cluster.
func TestClusterColdSiteUntouched(t *testing.T) {
	prog := compileSrc(t, dispatchSrc)
	_, stats, prov := cluster(t, prog, indirect.Options{MinCount: 1 << 40})
	if stats.Clustered != 0 || len(prov.Sites) != 0 || stats.BlocksAdded != 0 {
		t.Fatalf("cold site clustered anyway: %+v", stats)
	}
}

// TestClusterNilProfile: no profile, no transform.
func TestClusterNilProfile(t *testing.T) {
	prog := compileSrc(t, dispatchSrc)
	stats, prov, err := indirect.Cluster(prog, nil, indirect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Clustered != 0 || len(prov.Sites) != 0 || stats.SizeFactor() != 1 {
		t.Fatalf("nil profile clustered: %+v", stats)
	}
}

func TestAnnotate(t *testing.T) {
	prog := compileSrc(t, dispatchSrc)
	targets := profileTargets(t, prog)
	indirect.Annotate(prog, targets)
	found := false
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			if b.Term.Op != ir.TermSwitch {
				continue
			}
			found = true
			if b.Term.Pred != ir.PredTaken || b.Term.PredIdx != 0 {
				t.Errorf("switch site %d predicted %v/%d, want taken/0 (the dominant outcome)",
					b.Term.Site, b.Term.Pred, b.Term.PredIdx)
			}
		}
	}
	if !found {
		t.Fatal("no switch found")
	}
}

// TestVerifyCatchesTampering mutates a clustered program in ways that keep
// it a valid IR program but break the transform contract; Verify must
// reject every one.
func TestVerifyCatchesTampering(t *testing.T) {
	build := func(t *testing.T) (*ir.Program, *ir.Program, *indirect.Provenance) {
		prog := compileSrc(t, dispatchSrc)
		targets := profileTargets(t, prog)
		// Annotate first so the clustered residual carries a prediction
		// (the drop-residual-prediction case needs one to drop).
		indirect.Annotate(prog, targets)
		snap := ir.CloneProgram(prog)
		work := ir.CloneProgram(prog)
		_, prov, err := indirect.Cluster(work, targets, indirect.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if errs := indirect.Verify(snap, work, prov); len(errs) > 0 {
			t.Fatalf("clean clustering failed Verify: %v", errs[0])
		}
		return snap, work, prov
	}
	tamper := []struct {
		name string
		mut  func(rec *indirect.SiteRecord)
	}{
		{"flip-test-prediction", func(rec *indirect.SiteRecord) {
			rec.Tests[0].Block.Term.Pred = ir.PredNotTaken
		}},
		{"wrong-test-outcome", func(rec *indirect.SiteRecord) {
			rec.Tests[0].Block.Term.SwOutcome++
		}},
		{"wrong-test-constant", func(rec *indirect.SiteRecord) {
			is := rec.Tests[0].Block.Instrs
			is[len(is)-2].Imm++
		}},
		{"retarget-taken-arm", func(rec *indirect.SiteRecord) {
			t0 := &rec.Tests[0].Block.Term
			t0.Then = rec.Residual.Term.Else
		}},
		{"drop-residual-prediction", func(rec *indirect.SiteRecord) {
			rec.Residual.Term.Pred = ir.PredNone
			rec.Residual.Term.PredIdx = -1
		}},
		{"shrink-residual", func(rec *indirect.SiteRecord) {
			rt := &rec.Residual.Term
			rt.Targets = rt.Targets[:len(rt.Targets)-1]
		}},
	}
	for _, tc := range tamper {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			snap, work, prov := build(t)
			tc.mut(&prov.Sites[0])
			if errs := indirect.Verify(snap, work, prov); len(errs) == 0 {
				t.Fatal("tampered program passed Verify")
			}
		})
	}
}

// FuzzIndirectEquivalence is the indirect family's differential fuzzer:
// clustering any BL program the frontend accepts, with any threshold
// configuration, must leave complete-run observables — return value,
// checksum, trace bytes — untouched, and the provenance must satisfy the
// structural verifier. Seeds are the dispatch workload
// and generated switch-heavy programs (plus the committed corpus under
// testdata/fuzz).
func FuzzIndirectEquivalence(f *testing.F) {
	f.Add(dispatchSrc, uint64(2), uint64(25))
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(progen.Generate(seed, progen.DefaultConfig()), uint64(seed%4), uint64(5+10*seed%50))
	}
	f.Fuzz(func(t *testing.T, src string, maxTests, minSharePct uint64) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		prog, err := lang.Compile(src)
		if err != nil {
			t.Skip() // invalid program: nothing to cluster
		}
		prog.NumberBranches(true)
		opts := indirect.Options{
			MaxTests: 1 + int(maxTests%4),
			MinShare: float64(1+minSharePct%99) / 100,
			MinCount: 1,
		}
		work, _, _ := cluster(t, prog, opts)
		diffCluster(t, prog, work, 2_000_000)
	})
}

// TestClusterProgen drives the transform over generated programs with
// permissive thresholds so many generated switches cluster, checking the
// dynamic contract and the structural verifier on each.
func TestClusterProgen(t *testing.T) {
	opts := indirect.Options{MaxTests: 3, MinShare: 0.05, MinCount: 1}
	clustered := 0
	for seed := int64(1); seed <= 40; seed++ {
		prog := compileSrc(t, progen.Generate(seed, progen.DefaultConfig()))
		work, stats, _ := cluster(t, prog, opts)
		clustered += stats.Clustered
		diffCluster(t, prog, work, 5_000_000)
	}
	if clustered == 0 {
		t.Fatal("no generated switch clustered across 40 seeds; thresholds or generator drifted")
	}
}
