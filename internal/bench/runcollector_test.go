package bench

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/progen"
	"repro/internal/trace"
)

// slabFromSource compiles a BL program and records its branch trace into
// a sealed slab. Returns nil when the source does not compile (fuzz
// inputs) — there is nothing to compare then.
func slabFromSource(src string, budget uint64) *trace.Slab {
	prog, err := lang.Compile(src)
	if err != nil {
		return nil
	}
	prog.NumberBranches(true)
	m := interp.New(prog)
	m.MaxBranches = budget
	m.MaxSteps = 2_000_000
	s := trace.NewSlab(0)
	m.Rec = s
	m.Run() // a limit trap still leaves a valid prefix trace
	s.Seal()
	return s
}

func probeEvents(nsites int) []trace.Event {
	evs := make([]trace.Event, 0, 4*nsites+16)
	for i := 0; i < 4*nsites+16; i++ {
		evs = append(evs, trace.Event{Site: int32(i % nsites), Taken: i%3 != 1})
	}
	return evs
}

func compareCounts(t *testing.T, label string, a, b *trace.Counts) {
	t.Helper()
	for i := range a.Taken {
		if a.Taken[i] != b.Taken[i] || a.NotTaken[i] != b.NotTaken[i] {
			t.Fatalf("%s: site %d counts diverge: %d/%d vs %d/%d",
				label, i, a.Taken[i], a.NotTaken[i], b.Taken[i], b.NotTaken[i])
		}
	}
}

func comparePairs(t *testing.T, label string, a, b []profile.Pair) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: table sizes diverge: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: slot %d diverges: %v vs %v", label, i, a[i], b[i])
		}
	}
}

func compareProfiles(t *testing.T, label string, a, b *profile.Profile) {
	t.Helper()
	compareCounts(t, label+"/counts", a.Counts, b.Counts)
	if a.Local.Recorded() != b.Local.Recorded() {
		t.Fatalf("%s: local recorded %d vs %d", label, a.Local.Recorded(), b.Local.Recorded())
	}
	if a.Global.Recorded() != b.Global.Recorded() {
		t.Fatalf("%s: global recorded %d vs %d", label, a.Global.Recorded(), b.Global.Recorded())
	}
	if a.Path.Recorded() != b.Path.Recorded() {
		t.Fatalf("%s: path recorded %d vs %d", label, a.Path.Recorded(), b.Path.Recorded())
	}
	if a.Streams.Total() != b.Streams.Total() {
		t.Fatalf("%s: streams total %d vs %d", label, a.Streams.Total(), b.Streams.Total())
	}
	for s := int32(0); int(s) < a.NSites; s++ {
		comparePairs(t, label+"/local", a.Local.Table(s), b.Local.Table(s))
		comparePairs(t, label+"/global", a.Global.Table(s), b.Global.Table(s))
		at, bt := a.Path.Table(s), b.Path.Table(s)
		if len(at) != len(bt) {
			t.Fatalf("%s: path site %d table size %d vs %d", label, s, len(at), len(bt))
		}
		for k, ap := range at {
			bp := bt[k]
			if bp == nil || *ap != *bp {
				t.Fatalf("%s: path site %d key %v diverges: %v vs %v", label, s, k, ap, bp)
			}
		}
		as, bs := a.Streams.Site(s), b.Streams.Site(s)
		if as.Len() != bs.Len() {
			t.Fatalf("%s: stream site %d length %d vs %d", label, s, as.Len(), bs.Len())
		}
		for i := 0; i < as.Len(); i++ {
			if as.Get(i) != bs.Get(i) {
				t.Fatalf("%s: stream site %d bit %d diverges", label, s, i)
			}
		}
	}
}

func compareEvals(t *testing.T, label string, nsites int, a, b *predict.Eval) {
	t.Helper()
	if a.Misses != b.Misses || a.Total != b.Total {
		t.Fatalf("%s: misses %d/%d vs %d/%d", label, a.Misses, a.Total, b.Misses, b.Total)
	}
	for s := int32(0); int(s) < nsites; s++ {
		if a.P.Predict(s) != b.P.Predict(s) {
			t.Fatalf("%s: site %d prediction diverges after replay", label, s)
		}
	}
}

// checkRunEquivalence is the differential comparator: every run-aware
// collector in profile and predict, replayed run-at-a-time, must end
// bit-identical to its event-at-a-time twin — both in its observable
// tables/counters and in its hidden register state, which the probe
// suffix (shared extra events recorded per-branch on both sides) exposes.
func checkRunEquivalence(t *testing.T, s *trace.Slab) {
	t.Helper()
	var max trace.MaxSite
	s.ReplayInto(&max)
	nsites := max.N
	if nsites == 0 {
		return
	}
	probe := probeEvents(nsites)

	evC, runC := trace.NewCounts(nsites), trace.NewCounts(nsites)
	s.Replay(evC.RecordBranch)
	s.ReplayRuns(runC.RecordRun)
	compareCounts(t, "counts", evC, runC)

	// Small history lengths reach the absorbing state quickly, long ones
	// stress the transient path; both must agree with per-event replay,
	// as must the fused ReplayInto production path.
	for _, opt := range []profile.Options{
		{LocalK: 2, GlobalK: 2, PathM: 1},
		{LocalK: 4, GlobalK: 3, PathM: 2},
		{}, // paper defaults 9/9/3
		{LocalK: 11, GlobalK: 11, PathM: 4},
	} {
		ev := profile.New(nsites, opt)
		run := profile.New(nsites, opt)
		into := profile.New(nsites, opt)
		s.Replay(ev.RecordBranch)
		s.ReplayRuns(run.RecordRun)
		s.ReplayInto(into)
		label := "profile"
		compareProfiles(t, label, ev, run)
		compareProfiles(t, label+"/into", ev, into)
		for _, pe := range probe {
			ev.RecordBranch(pe.Site, pe.Taken)
			run.RecordBranch(pe.Site, pe.Taken)
		}
		compareProfiles(t, label+"/probed", ev, run)
	}

	mkPredictors := func() []predict.Predictor {
		return []predict.Predictor{
			predict.NewLastDirection(nsites),
			predict.NewTwoBit(nsites),
			predict.NewTwoLevel(predict.PaperTwoLevel()),
			predict.NewGShare(10),
			predict.NewCombining(predict.NewLastDirection(nsites), predict.NewTwoBit(nsites), nsites),
		}
	}
	evPs, runPs := mkPredictors(), mkPredictors()
	for i := range evPs {
		ev := &predict.Eval{P: evPs[i]}
		run := &predict.Eval{P: runPs[i]}
		s.Replay(ev.RecordBranch)
		s.ReplayRuns(run.RecordRun)
		label := "predict/" + ev.P.Name()
		compareEvals(t, label, nsites, ev, run)
		for _, pe := range probe {
			ev.RecordBranch(pe.Site, pe.Taken)
			run.RecordBranch(pe.Site, pe.Taken)
		}
		compareEvals(t, label+"/probed", nsites, ev, run)
	}

	preds := make([]ir.Prediction, nsites)
	for i := range preds {
		preds[i] = []ir.Prediction{ir.PredTaken, ir.PredNotTaken, ir.PredNone}[i%3]
	}
	evS := &predict.StaticScore{Preds: preds}
	runS := &predict.StaticScore{Preds: preds}
	s.Replay(evS.RecordBranch)
	s.ReplayRuns(runS.RecordRun)
	if evS.Predicted != runS.Predicted || evS.Mispredicted != runS.Mispredicted {
		t.Fatalf("static score diverges: %d/%d vs %d/%d",
			evS.Mispredicted, evS.Predicted, runS.Mispredicted, runS.Predicted)
	}
}

// TestRunCollectorEquivalenceWorkloads runs the differential comparator
// deterministically over the catalog workloads and a spread of generated
// programs, so plain `go test` covers the contract without fuzzing.
func TestRunCollectorEquivalenceWorkloads(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			s := slabFromSource(w.Source, 100_000)
			if s == nil {
				t.Fatal("workload failed to compile")
			}
			checkRunEquivalence(t, s)
		})
	}
	for seed := int64(1); seed <= 12; seed++ {
		s := slabFromSource(progen.Generate(seed, progen.DefaultConfig()), 50_000)
		if s == nil {
			t.Fatalf("progen seed %d failed to compile", seed)
		}
		checkRunEquivalence(t, s)
	}
}

// FuzzRunCollectorEquivalence fuzzes the same contract: for any program
// the frontend accepts and any branch budget, run-aware replay must be
// bit-identical to event-at-a-time replay for every collector in profile
// and predict.
func FuzzRunCollectorEquivalence(f *testing.F) {
	for _, w := range Workloads() {
		f.Add(w.Source, uint64(20_000))
	}
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(progen.Generate(seed, progen.DefaultConfig()), uint64(0))
		f.Add(progen.Generate(seed, progen.DefaultConfig()), uint64(777))
	}
	f.Fuzz(func(t *testing.T, src string, budget uint64) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		if budget == 0 || budget > 100_000 {
			budget = 100_000
		}
		s := slabFromSource(src, budget)
		if s == nil {
			t.Skip() // invalid program: nothing to compare
		}
		checkRunEquivalence(t, s)
	})
}

// TestFusedReplayEncodingProgen pins the fused single-pass fan-out at the
// byte level over generated programs: re-encoding a slab into a second
// slab, as a collector, must reproduce the slab's own encoding whether
// ReplayInto drives it alone or beside another collector sharing the
// decode pass.
func TestFusedReplayEncodingProgen(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		s := slabFromSource(progen.Generate(seed, progen.DefaultConfig()), 50_000)
		if s == nil {
			t.Fatalf("progen seed %d failed to compile", seed)
		}
		var max trace.MaxSite
		s.ReplayInto(&max)
		nsites := max.N
		if nsites == 0 {
			continue
		}

		var want, directBuf, fusedBuf bytes.Buffer
		if _, err := s.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		direct := trace.NewSlab(0)
		s.ReplayInto(direct)
		direct.Seal()
		if _, err := direct.WriteTo(&directBuf); err != nil {
			t.Fatal(err)
		}

		fused := trace.NewSlab(0)
		fusedCounts := trace.NewCounts(nsites)
		soloCounts := trace.NewCounts(nsites)
		s.ReplayInto(fusedCounts, fused)
		s.ReplayInto(soloCounts)
		fused.Seal()
		if _, err := fused.WriteTo(&fusedBuf); err != nil {
			t.Fatal(err)
		}

		if !bytes.Equal(want.Bytes(), directBuf.Bytes()) {
			t.Fatalf("seed %d: ReplayInto(Slab) bytes differ from the slab's (%d vs %d)",
				seed, directBuf.Len(), want.Len())
		}
		if !bytes.Equal(want.Bytes(), fusedBuf.Bytes()) {
			t.Fatalf("seed %d: fused slab bytes differ from the slab's (%d vs %d)",
				seed, fusedBuf.Len(), want.Len())
		}
		compareCounts(t, "fused counts", soloCounts, fusedCounts)
	}
}

// TestLiveFanOutMatchesSlab pins the live multi-collector path to the
// recorded trace on the switch-heavy workloads: a slab filled live as a
// collector beside a second collector must write exactly the bytes the
// direct slab hook records for the same run, so batched branch and switch
// events keep their execution order and their site keys.
func TestLiveFanOutMatchesSlab(t *testing.T) {
	const budget = 20_000
	for _, w := range IndirectWorkloads() {
		c, err := Compile(w)
		if err != nil {
			t.Fatal(err)
		}
		var live bytes.Buffer
		lw := trace.NewSlab(budget)
		if _, err := c.Run(RunConfig{Budget: budget}, lw, trace.NewCounts(c.NSites)); err != nil {
			t.Fatal(err)
		}
		lw.Seal()
		if _, err := lw.WriteTo(&live); err != nil {
			t.Fatal(err)
		}

		m, err := newMachine(c.Prog, RunConfig{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		slab := trace.NewSlab(budget)
		m.SetRec(slab)
		if _, err := m.Run(); err != nil && !errors.Is(err, interp.ErrLimit) {
			t.Fatal(err)
		}
		slab.Seal()
		var want bytes.Buffer
		if _, err := slab.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(live.Bytes(), want.Bytes()) {
			t.Fatalf("%s: live fan-out wrote %d bytes, the slab %d", w.Name, live.Len(), want.Len())
		}
	}
}
