package bench

import (
	"fmt"
	"time"
)

// ExecMeasurement is one workload's interpreter throughput: the same
// budgeted live run (no collectors attached, the conditions of the suite's
// measured experiments), reporting the best of Rounds rounds.
type ExecMeasurement struct {
	Workload string
	Budget   uint64
	Rounds   int
	// InterpBranchesPerSec is branch events per second of wall clock.
	InterpBranchesPerSec float64
}

// MeasureExec times every named workload (nil = the whole suite) on the
// interpreter. Each round runs the workload to its branch budget with no
// collectors; the best round is kept, damping scheduler and GC noise.
func MeasureExec(names []string, budget uint64, rounds int) ([]ExecMeasurement, error) {
	if budget == 0 {
		budget = 500_000
	}
	if rounds <= 0 {
		rounds = 3
	}
	ws := Workloads()
	if len(names) > 0 {
		ws = ws[:0]
		for _, n := range names {
			w, err := ByName(n)
			if err != nil {
				return nil, err
			}
			ws = append(ws, w)
		}
	}
	cfg := RunConfig{Budget: budget, Scale: 1 << 30}
	out := make([]ExecMeasurement, 0, len(ws))
	for _, w := range ws {
		c, err := Compile(w)
		if err != nil {
			return nil, err
		}
		best := time.Duration(1<<63 - 1)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			if _, err := c.Run(cfg); err != nil {
				return nil, fmt.Errorf("bench: exec measurement %s: %w", w.Name, err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		out = append(out, ExecMeasurement{
			Workload: w.Name, Budget: budget, Rounds: rounds,
			InterpBranchesPerSec: float64(budget) / best.Seconds(),
		})
	}
	return out, nil
}

// ExecTable renders the measurements as a result table.
func ExecTable(ms []ExecMeasurement) *Table {
	t := &Table{
		ID:    "execbench",
		Title: "Interpreter throughput (million branches/s, live runs)",
	}
	interp := Row{Name: "interpreter"}
	for _, m := range ms {
		t.Cols = append(t.Cols, m.Workload)
		interp.Cells = append(interp.Cells, Cell{Value: m.InterpBranchesPerSec / 1e6, Valid: true})
	}
	t.Rows = append(t.Rows, interp)
	return t
}
