package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/progen"
)

// BenchmarkStaticReport times the whole static report — heuristics, SSA
// construction and SCCP — over progen DefaultConfig programs at fixed
// seeds, the per-request work of a cold /v1/analyze after the front end.
func BenchmarkStaticReport(b *testing.B) {
	var progs []*ir.Program
	for seed := int64(1); len(progs) < 16; seed++ {
		prog, err := lang.Compile(progen.Generate(seed, progen.DefaultConfig()))
		if err != nil {
			continue
		}
		prog.NumberBranches(true)
		progs = append(progs, prog)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			if _, err := analysis.BuildStaticReport(prog); err != nil {
				b.Fatal(err)
			}
		}
	}
}
