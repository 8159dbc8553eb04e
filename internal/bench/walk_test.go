package bench

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/replicate"
)

// BenchmarkWalk is the execution layer's before and after for measuring a
// replicated program: the eight catalog replicas at a 500k-branch budget,
// walked along their recorded traces ("walk") against the live counting
// run each walk replaced ("live"), on the reference interpreter.
func BenchmarkWalk(b *testing.B) {
	cfg := QuickConfig()
	cfg.Budget = 500_000
	cfg.Parallel = 1
	s, err := NewSuite(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var reps []*replica
	for _, d := range s.Data {
		r, err := s.replicaFor(d, replicaStates)
		if err != nil {
			b.Fatal(err)
		}
		reps = append(reps, r)
	}
	branches := func(b *testing.B) {
		b.ReportMetric(float64(uint64(b.N)*uint64(len(reps))*cfg.Budget)/b.Elapsed().Seconds(), "branches/s")
	}
	b.Run("walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, d := range s.Data {
				if _, err := replicate.Walk(context.Background(), reps[k].Prog, d.Art.Slab,
					replicate.WalkLimits{MaxBranches: cfg.Budget}); err != nil {
					b.Fatal(err)
				}
			}
		}
		branches(b)
	})
	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range reps {
				if _, err := core.Count(context.Background(), r.Prog, s.cell(cfg.Seed)); err != nil {
					b.Fatal(err)
				}
			}
		}
		branches(b)
	})
}
