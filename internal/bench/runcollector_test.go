package bench

import (
	"bytes"
	"errors"
	"slices"
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

// refLocal is the reference local-history fold, written apart from
// profile.LocalFromStreams: one event at a time, with a K-bit register of
// each site's own last outcomes (bit 0 the most recent) and the site's
// first K outcomes as warm-up.
type refLocal struct {
	k     int
	hist  []uint32
	seen  []int
	tabs  [][]profile.Pair
	total uint64
}

func newRefLocal(nsites, k int) *refLocal {
	return &refLocal{k: k, hist: make([]uint32, nsites), seen: make([]int, nsites), tabs: make([][]profile.Pair, nsites)}
}

func (r *refLocal) RecordBranch(s int32, taken bool) {
	if r.seen[s] < r.k {
		r.seen[s]++
	} else {
		if r.tabs[s] == nil {
			r.tabs[s] = make([]profile.Pair, 1<<r.k)
		}
		r.tabs[s][r.hist[s]].Add(taken)
		r.total++
	}
	r.hist[s] = (r.hist[s] << 1) & (1<<r.k - 1)
	if taken {
		r.hist[s] |= 1
	}
}

// compareLocal holds derived local tables to the reference fold.
func compareLocal(t *testing.T, label string, want *refLocal, got *profile.LocalHistory) {
	t.Helper()
	if got.K != want.k || got.NumSites() != len(want.tabs) || got.Recorded() != want.total {
		t.Fatalf("%s: K %d, %d sites, recorded %d; want K %d, %d sites, recorded %d",
			label, got.K, got.NumSites(), got.Recorded(), want.k, len(want.tabs), want.total)
	}
	for s := range want.tabs {
		if (got.Table(int32(s)) == nil) != (want.tabs[s] == nil) {
			t.Fatalf("%s: site %d table presence diverges", label, s)
		}
		comparePairs(t, label, want.tabs[s], got.Table(int32(s)))
	}
}

// compareProfiles compares the tables two profiles fold per event; the
// local tables, derived from the streams, are checked by compareLocal.
func compareProfiles(t *testing.T, label string, a, b *profile.Profile) {
	t.Helper()
	compareCounts(t, label+"/counts", a.Counts, b.Counts)
	if (a.Global == nil) != (b.Global == nil) {
		t.Fatalf("%s: global table presence diverges", label)
	}
	if a.Global != nil && a.Global.Recorded() != b.Global.Recorded() {
		t.Fatalf("%s: global recorded %d vs %d", label, a.Global.Recorded(), b.Global.Recorded())
	}
	if a.Path.Recorded() != b.Path.Recorded() {
		t.Fatalf("%s: path recorded %d vs %d", label, a.Path.Recorded(), b.Path.Recorded())
	}
	if a.Streams.Total() != b.Streams.Total() {
		t.Fatalf("%s: streams total %d vs %d", label, a.Streams.Total(), b.Streams.Total())
	}
	for s := int32(0); int(s) < a.NSites; s++ {
		if a.Global != nil {
			comparePairs(t, label+"/global", a.Global.Table(s), b.Global.Table(s))
		}
		ak, ap := a.Path.Table(s)
		bk, bp := b.Path.Table(s)
		if !slices.Equal(ak, bk) {
			t.Fatalf("%s: path site %d keys diverge: %v vs %v", label, s, ak, bk)
		}
		comparePairs(t, label+"/path", ap, bp)
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
// The local tables derived from each profile's streams, at its LocalK and
// at k = 1, must match the per-event reference fold.
func checkRunEquivalence(t *testing.T, s *trace.Slab) {
	t.Helper()
	var max trace.MaxSite
	s.ReplayInto(&max)
	nsites := max.N
	if nsites == 0 {
		return
	}
	probe := probeEvents(nsites)
	ref1 := newRefLocal(nsites, 1)
	eachBranch(s, ref1.RecordBranch)

	evC, runC := trace.NewCounts(nsites), trace.NewCounts(nsites)
	eachBranch(s, evC.RecordBranch)
	s.ReplayInto(runC)
	compareCounts(t, "counts", evC, runC)

	// Small history lengths reach the absorbing state quickly, long ones
	// stress the transient path; both must agree with per-event replay.
	for _, opt := range []profile.Options{
		{LocalK: 2, GlobalK: 2, PathM: 1},
		{LocalK: 4, GlobalK: 3, PathM: 2},
		{GlobalK: 9}, // paper defaults 9/9/3
		{LocalK: 11, GlobalK: 11, PathM: 4},
		{}, // core's and kralld's profile: 9/3, no global table
	} {
		ev := profile.New(nsites, opt)
		run := profile.New(nsites, opt)
		eachBranch(s, ev.RecordBranch)
		s.ReplayInto(run)
		label := "profile"
		compareProfiles(t, label, ev, run)
		ref := newRefLocal(nsites, run.Local().K)
		eachBranch(s, ref.RecordBranch)
		for _, p := range []*profile.Profile{ev, run} {
			compareLocal(t, label+"/local", ref, p.Local())
		}
		compareLocal(t, label+"/local1", ref1, profile.LocalFromStreams(run.Streams, 1))
		for _, pe := range probe {
			ev.RecordBranch(pe.Site, pe.Taken)
			run.RecordBranch(pe.Site, pe.Taken)
			ref.RecordBranch(pe.Site, pe.Taken)
		}
		compareProfiles(t, label+"/probed", ev, run)
		compareLocal(t, label+"/local/probed", ref, profile.LocalFromStreams(run.Streams, ref.k))
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
		eachBranch(s, ev.RecordBranch)
		s.ReplayInto(run)
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
	var wantMisses, wantPredicted uint64
	eachBranch(s, func(site int32, taken bool) {
		if p := preds[site]; p != ir.PredNone {
			wantPredicted++
			if (p == ir.PredTaken) != taken {
				wantMisses++
			}
		}
	})
	if misses, predicted := predict.ScoreVector(preds, runC); misses != wantMisses || predicted != wantPredicted {
		t.Fatalf("static score diverges: %d/%d over the run-replayed counts, %d/%d per event",
			misses, predicted, wantMisses, wantPredicted)
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
// and predict, and the local tables derived from the streams must match
// the per-event reference fold.
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
