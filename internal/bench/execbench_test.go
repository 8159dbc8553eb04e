package bench

import (
	"strings"
	"testing"
)

// TestMeasureExec exercises the interpreter throughput measurement end to
// end on a small budget: every row must carry a positive rate.
func TestMeasureExec(t *testing.T) {
	ms, err := MeasureExec([]string{"compress", "cc"}, 20_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("got %d measurements, want 2", len(ms))
	}
	for _, m := range ms {
		if m.InterpBranchesPerSec <= 0 {
			t.Errorf("%s: non-positive rate: %+v", m.Workload, m)
		}
	}
	out := ExecTable(ms).Render()
	for _, want := range []string{"interpreter", "compress", "cc"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestMeasureExecUnknownWorkload(t *testing.T) {
	if _, err := MeasureExec([]string{"no-such-workload"}, 1000, 1); err == nil {
		t.Fatal("want error for unknown workload")
	}
}

// BenchmarkExec times budgeted live runs (no collectors) on the
// interpreter. The branches/s metric is the number the krallbench
// -execbench section and the BENCH_results.json exec section report.
func BenchmarkExec(b *testing.B) {
	const budget = 500_000
	cfg := RunConfig{Budget: budget, Scale: 1 << 30}
	for _, name := range []string{"compress", "doduc", "cc"} {
		w, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		c, err := Compile(w)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(budget)*float64(b.N)/b.Elapsed().Seconds(), "branches/s")
		})
	}
}
