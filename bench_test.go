// Benchmarks regenerating every table and figure of the paper's evaluation
// section (see DESIGN.md's per-experiment index). Each benchmark reports
// the headline metric of its experiment via b.ReportMetric, so
// `go test -bench=. -benchmem` both times the pipeline and shows the
// reproduced numbers. The benchmarks run at a reduced budget
// (benchBudget); cmd/krallbench regenerates the full-size tables.
package repro

import (
	"strconv"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/replicate"
	"repro/internal/statemachine"
	"repro/internal/trace"
)

const benchBudget = 200_000

var (
	suiteOnce sync.Once
	suite     *bench.Suite
	suiteErr  error
)

func benchSuite(b *testing.B) *bench.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		cfg := bench.DefaultConfig()
		cfg.Budget = benchBudget
		suite, suiteErr = bench.NewSuite(cfg)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

// avgRow averages the valid rate cells of a named row.
func avgRow(b *testing.B, t *bench.Table, name string) float64 {
	b.Helper()
	for _, r := range t.Rows {
		if r.Name != name {
			continue
		}
		sum, n := 0.0, 0
		for _, c := range r.Cells {
			if c.Valid {
				sum += c.Value
				n++
			}
		}
		if n == 0 {
			b.Fatalf("row %q empty", name)
		}
		return sum / float64(n)
	}
	b.Fatalf("table %s lacks row %q", t.ID, name)
	return 0
}

// BenchmarkSuiteBuild measures the parallel experiment engine: profiling
// all eight workloads at several worker counts. The reported job and
// cache counters come from the engine itself (repro.EngineStats), so the
// benchmark doubles as a check that work is actually distributed.
func BenchmarkSuiteBuild(b *testing.B) {
	for _, workers := range []int{1, 2, 0} { // 0 = GOMAXPROCS
		name := "parallel=" + strconv.Itoa(workers)
		if workers == 0 {
			name = "parallel=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			var st bench.Suite
			for i := 0; i < b.N; i++ {
				cfg := bench.DefaultConfig()
				cfg.Budget = benchBudget / 4
				cfg.Parallel = workers
				s, err := bench.NewSuite(cfg)
				if err != nil {
					b.Fatal(err)
				}
				st = *s
			}
			var stats EngineStats = st.Engine().Stats()
			b.ReportMetric(float64(stats.Jobs), "jobs")
			b.ReportMetric(float64(stats.CacheMisses), "cache-misses")
		})
	}
}

// BenchmarkAllExperiments runs every table once on a fresh suite, the
// shape of `krallbench -all`, and reports the cache-hit counter — the
// measured experiments share their strategy selections through the
// artifact cache, so hits should dominate misses.
func BenchmarkAllExperiments(b *testing.B) {
	var stats EngineStats
	for i := 0; i < b.N; i++ {
		cfg := bench.DefaultConfig()
		cfg.Budget = benchBudget / 4
		s, err := bench.NewSuite(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s.Table1()
		s.Table5()
		if _, err := s.MeasuredReplication(5); err != nil {
			b.Fatal(err)
		}
		if _, err := s.CrossDataset(); err != nil {
			b.Fatal(err)
		}
		if _, err := s.LayoutTable(); err != nil {
			b.Fatal(err)
		}
		if _, err := s.ScopeTable(); err != nil {
			b.Fatal(err)
		}
		stats = s.Engine().Stats()
	}
	b.ReportMetric(float64(stats.CacheHits), "cache-hits")
	b.ReportMetric(float64(stats.CacheMisses), "cache-misses")
}

// BenchmarkTable1 regenerates Table 1 (strategy misprediction rates).
func BenchmarkTable1(b *testing.B) {
	s := benchSuite(b)
	var t *bench.Table
	for i := 0; i < b.N; i++ {
		t = s.Table1()
	}
	b.ReportMetric(avgRow(b, t, "profile"), "profile-miss-%")
	b.ReportMetric(avgRow(b, t, "loop-correlation"), "loopcorr-miss-%")
	b.ReportMetric(avgRow(b, t, "two level 1K/9bit"), "twolevel-miss-%")
}

// BenchmarkTable2 regenerates Table 2 (pattern-table fill rates).
func BenchmarkTable2(b *testing.B) {
	s := benchSuite(b)
	var t *bench.Table
	for i := 0; i < b.N; i++ {
		t = s.Table2()
	}
	b.ReportMetric(avgRow(b, t, "9 bit local history"), "fill9-local-%")
	b.ReportMetric(avgRow(b, t, "9 bit global history"), "fill9-global-%")
}

// BenchmarkTable3 regenerates Table 3 (loop and exit state machines).
func BenchmarkTable3(b *testing.B) {
	s := benchSuite(b)
	var t *bench.Table
	for i := 0; i < b.N; i++ {
		t = s.Table3()
	}
	b.ReportMetric(avgRow(b, t, "5 states (loop)"), "loop5-miss-%")
	b.ReportMetric(avgRow(b, t, "5 states (exit)"), "exit5-miss-%")
}

// BenchmarkTable4 regenerates Table 4 (correlated-branch machines).
func BenchmarkTable4(b *testing.B) {
	s := benchSuite(b)
	var t *bench.Table
	for i := 0; i < b.N; i++ {
		t = s.Table4()
	}
	b.ReportMetric(avgRow(b, t, "5 states"), "path5-miss-%")
	b.ReportMetric(avgRow(b, t, "profile"), "profile-miss-%")
}

// BenchmarkTable5 regenerates Table 5 (best achievable rates).
func BenchmarkTable5(b *testing.B) {
	s := benchSuite(b)
	var t *bench.Table
	for i := 0; i < b.N; i++ {
		t = s.Table5()
	}
	b.ReportMetric(avgRow(b, t, "10 states"), "best10-miss-%")
}

// BenchmarkFigures regenerates the misprediction-vs-size curves
// (Figures 6-13) and reports the headline operating point.
func BenchmarkFigures(b *testing.B) {
	s := benchSuite(b)
	var figs []bench.Figure
	for i := 0; i < b.N; i++ {
		figs = s.Figures()
	}
	hs := bench.Headlines(figs)
	var red, prof, at133 float64
	for _, h := range hs {
		red += h.ReductionPct
		prof += h.ProfileRate
		at133 += h.At133Rate
	}
	n := float64(len(hs))
	b.ReportMetric(red/n, "reduction-at-1.33x-%")
	b.ReportMetric(prof/n, "profile-miss-%")
	b.ReportMetric(at133/n, "replicated-miss-%")
}

// BenchmarkMeasuredReplication runs the interpreter-verified end-to-end
// experiment: transform every workload and execute it.
func BenchmarkMeasuredReplication(b *testing.B) {
	s := benchSuite(b)
	var t *bench.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = s.MeasuredReplication(5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(avgRow(b, t, "profile baseline (measured)"), "baseline-miss-%")
	b.ReportMetric(avgRow(b, t, "replicated (measured)"), "replicated-miss-%")
	b.ReportMetric(avgRow(b, t, "size factor"), "size-factor")
}

// BenchmarkCrossDataset runs the §6 dataset-sensitivity experiment.
func BenchmarkCrossDataset(b *testing.B) {
	s := benchSuite(b)
	var t *bench.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = s.CrossDataset()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(avgRow(b, t, "profile self"), "self-miss-%")
	b.ReportMetric(avgRow(b, t, "profile cross"), "cross-miss-%")
}

// BenchmarkAblation compares strategy families in isolation (the design
// choices DESIGN.md calls out): loop machines only, exit machines only,
// path machines only, and all together.
func BenchmarkAblation(b *testing.B) {
	s := benchSuite(b)
	cases := []struct {
		name string
		opt  statemachine.Options
	}{
		{"all", statemachine.Options{MaxStates: 5, MaxPathLen: 3}},
		{"loop-only", statemachine.Options{MaxStates: 5, MaxPathLen: 3, DisableExit: true, DisablePath: true}},
		{"exit-only", statemachine.Options{MaxStates: 5, MaxPathLen: 3, DisableLoop: true, DisablePath: true}},
		{"path-only", statemachine.Options{MaxStates: 5, MaxPathLen: 3, DisableLoop: true, DisableExit: true}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				var miss, tot uint64
				for _, d := range s.Data {
					ch := statemachine.Select(d.Prof, d.C.Features, c.opt)
					m, t := statemachine.Aggregate(ch)
					miss += m
					tot += t
				}
				rate = 100 * float64(miss) / float64(tot)
			}
			b.ReportMetric(rate, "miss-%")
		})
	}
}

// BenchmarkInterpreter measures raw interpreter throughput on the compress
// workload (instructions per second drive every experiment's cost).
func BenchmarkInterpreter(b *testing.B) {
	w, err := bench.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	c, err := bench.Compile(w)
	if err != nil {
		b.Fatal(err)
	}
	var steps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := interp.New(c.Prog)
		m.MaxBranches = 100_000
		if err := m.SetGlobal("wscale", 1<<30); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil && err != interp.ErrLimit {
			b.Fatal(err)
		}
		steps = m.Steps
	}
	b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkTraceRecord measures the record-once path: interpreting the
// compress workload with the direct slab hook (interp.Machine.Rec) instead
// of a Collector interface call per branch.
func BenchmarkTraceRecord(b *testing.B) {
	w, err := bench.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	c, err := bench.Compile(w)
	if err != nil {
		b.Fatal(err)
	}
	const events = 100_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := interp.New(c.Prog)
		m.MaxBranches = events
		s := trace.NewSlab(events)
		m.Rec = s
		if err := m.SetGlobal("wscale", 1<<30); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil && err != interp.ErrLimit {
			b.Fatal(err)
		}
		s.Seal()
		if s.Len() != events {
			b.Fatalf("recorded %d events", s.Len())
		}
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTraceReplay measures the replay-many path — the work the
// engine does instead of re-interpreting a workload — per collector
// class: plain counts (the "profile" strategy's entire data need), the
// full five-table profile bundle and the dynamic-predictor evaluators.
// All paths run the run-aware fused decode; "counts" corresponds to the historical single-number baseline's
// count-collector case.
func BenchmarkTraceReplay(b *testing.B) {
	w, err := bench.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	c, err := bench.Compile(w)
	if err != nil {
		b.Fatal(err)
	}
	const events = 100_000
	m := interp.New(c.Prog)
	m.MaxBranches = events
	s := trace.NewSlab(events)
	m.Rec = s
	if err := m.SetGlobal("wscale", 1<<30); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Run(); err != nil && err != interp.ErrLimit {
		b.Fatal(err)
	}
	s.Seal()
	perEvent := func(b *testing.B) {
		b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		b.ReportMetric(float64(s.EncodedBytes()), "trace-bytes")
	}
	b.Run("counts", func(b *testing.B) {
		counts := trace.NewCounts(c.NSites)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ReplayInto(counts)
		}
		perEvent(b)
	})
	b.Run("profile-score", func(b *testing.B) {
		// The service's "profile" scoring strategy: counts plus the
		// majority-direction fold.
		counts := trace.NewCounts(c.NSites)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clear(counts.Taken)
			clear(counts.NotTaken)
			s.ReplayInto(counts)
			if r := predict.ProfileResult(counts); r.Total != events {
				b.Fatalf("scored %d events", r.Total)
			}
		}
		perEvent(b)
	})
	b.Run("profile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := profile.New(c.NSites, profile.Options{LocalK: 9, GlobalK: 9, PathM: 3})
			s.ReplayInto(p)
		}
		perEvent(b)
	})
	b.Run("predict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			last := &predict.Eval{P: predict.NewLastDirection(c.NSites)}
			twobit := &predict.Eval{P: predict.NewTwoBit(c.NSites)}
			s.ReplayInto(last, twobit)
			if last.Total != events || twobit.Total != events {
				b.Fatal("short replay")
			}
		}
		perEvent(b)
	})
}

// BenchmarkProfileCollection measures the full multi-table profiling hook.
func BenchmarkProfileCollection(b *testing.B) {
	w, err := bench.ByName("ghostview")
	if err != nil {
		b.Fatal(err)
	}
	c, err := bench.Compile(w)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := profile.New(c.NSites, profile.Options{})
		if _, err := c.Run(bench.RunConfig{Budget: 100_000, Scale: 1 << 30}, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopMachineSearch measures the paper-counting loop-machine
// search at the paper's largest machine size.
func BenchmarkLoopMachineSearch(b *testing.B) {
	st := profile.NewStreams(1)
	x := uint32(1)
	for i := 0; i < 50_000; i++ {
		x = x*1664525 + 1013904223
		st.RecordBranch(0, x&0x30000 != 0x30000)
	}
	tab := profile.LocalFromStreams(st, 9).Table(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := statemachine.BestLoopMachine(tab, 9, 10)
		if m.NumStates() != 10 {
			b.Fatal("bad machine")
		}
	}
}

// BenchmarkReplicateApply measures the code replication transform itself.
func BenchmarkReplicateApply(b *testing.B) {
	s := benchSuite(b)
	d := s.Data[0] // abalone
	choices := statemachine.Select(d.Prof, d.C.Features, statemachine.Options{
		MaxStates: 5, MaxPathLen: 1,
	})
	preds := predict.ProfileStatic(d.Prof.Counts).Preds
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clone := ir.CloneProgram(d.C.Prog)
		if _, err := replicate.ApplyOpts(clone, choices, preds, replicate.Options{MaxSizeFactor: 3}); err != nil {
			b.Fatal(err)
		}
	}
}
