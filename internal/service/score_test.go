package service

import (
	"testing"

	"repro/internal/trace"
)

// scoreBenchSlab records a deterministic ~100k-event trace shaped like a
// real workload: a mix of loop back-edges (long runs) and data-dependent
// branches.
func scoreBenchSlab(nsites int, events int) *trace.Slab {
	s := trace.NewSlab(events)
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < events; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		site := int32(state>>33) % int32(nsites)
		if site < 0 {
			site = -site
		}
		taken := state&0x70 != 0 // biased taken, like loop branches
		s.Record(site, taken)
	}
	s.Seal()
	return s
}

// TestScoreSlabSteadyStateAllocs pins the pooled score path: once the
// per-request state has warmed up, scoring a trace must not allocate
// proportionally to sites or events — only the handful of fixed escapes
// (evaluator headers, the memoised entry) remain.
func TestScoreSlabSteadyStateAllocs(t *testing.T) {
	srv := mustNew(t, Config{})
	slab := scoreBenchSlab(64, 20_000)
	preds := []string{"taken", "not_taken", "", "taken"}
	for _, strategy := range []string{"profile", "last", "twobit", "static"} {
		strategy := strategy
		t.Run(strategy, func(t *testing.T) {
			score := func() {
				if _, _, err := srv.scoreSlab(slab, strategy, preds); err != nil {
					t.Fatal(err)
				}
			}
			score() // warm the pool
			if avg := testing.AllocsPerRun(20, score); avg > 8 {
				t.Fatalf("scoreSlab(%s) allocates %.1f objects per call in steady state", strategy, avg)
			}
		})
	}
}

// BenchmarkScoreSlab measures the service's hot scoring path end to end
// (site scan + strategy replay) against a recorded trace, per strategy.
func BenchmarkScoreSlab(b *testing.B) {
	srv := mustNew(b, Config{})
	slab := scoreBenchSlab(64, 100_000)
	preds := []string{"taken", "not_taken", "", "taken"}
	for _, strategy := range []string{"profile", "last", "twobit", "static"} {
		strategy := strategy
		b.Run(strategy, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := srv.scoreSlab(slab, strategy, preds); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(slab.Len())*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
