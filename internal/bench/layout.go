package bench

import (
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/runner"
	"repro/internal/trace"
)

// LayoutTable runs the code-positioning extension experiment: the dynamic
// taken-transfer rate (the [PH90] objective; lower is better for the
// instruction cache and fetch unit) for the original program and for the
// replicated one, each under the naive block order and under
// Pettis–Hansen positioning. It quantifies §5's remark that a cost
// function must weigh replication's cache impact: replication adds code,
// but its biased per-state branches lay out into longer fall-through runs.
// One parallel job per workload; the replicated side is the workload's
// replica, shared with the other measured experiments.
func (s *Suite) LayoutTable() (*Table, error) {
	t := &Table{
		ID:    "layout",
		Title: "Dynamic taken-transfer rate (%) under code positioning [PH90]",
	}
	type col struct{ origNaive, origPH, replNaive, replPH Cell }
	cols, err := runner.Map(s.eng, s.Data, func(_ int, d *WorkloadData) (col, error) {
		var c col
		if d.Art != nil {
			// The original program's block counts and branch counts are
			// already in the recorded artifact and the replayed profile;
			// both layouts evaluate straight off them.
			c.origNaive, c.origPH = layoutCells(d.C.Prog, d.Art.BlockCounts, d.Prof.Counts)
		} else {
			s.countLiveRun()
			counts, bc, _, err := countingRun(d.C.Prog, s.Cfg)
			if err != nil {
				return col{}, err
			}
			c.origNaive, c.origPH = layoutCells(d.C.Prog, bc, counts)
		}
		r, err := s.replicaFor(d, replicaStates)
		if err != nil {
			return col{}, err
		}
		c.replNaive, c.replPH = layoutCells(r.Prog, r.BlockCounts, r.Counts)
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	t.Cols = s.colNames()
	origNaive := Row{Name: "original, naive layout"}
	origPH := Row{Name: "original, PH layout"}
	replNaive := Row{Name: "replicated, naive layout"}
	replPH := Row{Name: "replicated, PH layout"}
	for _, c := range cols {
		origNaive.Cells = append(origNaive.Cells, c.origNaive)
		origPH.Cells = append(origPH.Cells, c.origPH)
		replNaive.Cells = append(replNaive.Cells, c.replNaive)
		replPH.Cells = append(replPH.Cells, c.replPH)
	}
	t.Rows = append(t.Rows, origNaive, origPH, replNaive, replPH)
	return t, nil
}

// layoutCells evaluates a program's taken-transfer rate under the naive
// block order and under Pettis–Hansen positioning.
func layoutCells(prog *ir.Program, blockCounts [][]uint64, counts *trace.Counts) (naive, ph Cell) {
	nv := layout.EvaluateProgram(prog, blockCounts, counts, false)
	pv := layout.EvaluateProgram(prog, blockCounts, counts, true)
	return Cell{Value: nv.TakenRate(), Valid: true}, Cell{Value: pv.TakenRate(), Valid: true}
}
