package bench

import (
	"repro/internal/runner"
	"repro/internal/superblock"
)

// ScopeTable runs the §6 future-work experiment: how much straight-line
// scope a trace scheduler gets, before and after replication. Traces are
// formed along mutually-most-likely edges; the metric is the average
// number of instructions executed between dynamic trace exits. Replicated
// branch copies are strongly biased, so traces run longer through them.
// One parallel job per workload; the replicated side is the workload's
// replica, shared with the other measured experiments.
func (s *Suite) ScopeTable() (*Table, error) {
	t := &Table{
		ID:    "scope",
		Title: "Scheduler scope: average dynamic trace length (instructions between trace exits)",
	}
	type col struct {
		orig, repl Cell
		traces     Cell
	}
	cols, err := runner.Map(s.eng, s.Data, func(_ int, d *WorkloadData) (col, error) {
		var c col
		if d.Art != nil {
			// Trace formation only needs the original program's block and
			// branch counts, both already captured by the recording run.
			so := superblock.MeasureProgram(d.C.Prog, d.Art.BlockCounts, d.Prof.Counts)
			c.orig = Cell{Value: so.AvgDynamicLength(), Valid: true}
		} else {
			m, err := s.measure(d, d.C.Prog, s.Cfg.Seed)
			if err != nil {
				return col{}, err
			}
			so := superblock.MeasureProgram(d.C.Prog, m.BlockCounts, m.Counts)
			c.orig = Cell{Value: so.AvgDynamicLength(), Valid: true}
		}
		r, err := s.replicaFor(d, replicaStates)
		if err != nil {
			return col{}, err
		}
		sr := superblock.MeasureProgram(r.Prog, r.BlockCounts, r.Counts)
		c.repl = Cell{Value: sr.AvgDynamicLength(), Valid: true}
		c.traces = countCell(uint64(sr.Traces))
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	t.Cols = s.colNames()
	orig := Row{Name: "original"}
	repl := Row{Name: "replicated"}
	traces := Row{Name: "traces formed (replicated)"}
	for _, c := range cols {
		orig.Cells = append(orig.Cells, c.orig)
		repl.Cells = append(repl.Cells, c.repl)
		traces.Cells = append(traces.Cells, c.traces)
	}
	t.Rows = append(t.Rows, orig, repl, traces)
	return t, nil
}
