package bench

import (
	"errors"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/predict"
	"repro/internal/replicate"
	"repro/internal/runner"
	"repro/internal/statemachine"
	"repro/internal/trace"
)

// LayoutTable runs the code-positioning extension experiment: the dynamic
// taken-transfer rate (the [PH90] objective; lower is better for the
// instruction cache and fetch unit) for the original program and for the
// replicated one, each under the naive block order and under
// Pettis–Hansen positioning. It quantifies §5's remark that a cost
// function must weigh replication's cache impact: replication adds code,
// but its biased per-state branches lay out into longer fall-through runs.
// One parallel job per workload; the strategy selection is shared with the
// other measured experiments through the artifact cache.
func (s *Suite) LayoutTable() (*Table, error) {
	t := &Table{
		ID:    "layout",
		Title: "Dynamic taken-transfer rate (%) under code positioning [PH90]",
	}
	type col struct{ origNaive, origPH, replNaive, replPH Cell }
	cols, err := runner.Map(s.eng, s.Data, func(_ int, d *WorkloadData) (col, error) {
		var c col
		var err error
		if d.Art != nil {
			// The original program's block counts and branch counts are
			// already in the recorded artifact and the replayed profile;
			// both layouts evaluate straight off them.
			nv := layout.EvaluateProgram(d.C.Prog, d.Art.BlockCounts, d.Prof.Counts, false)
			pv := layout.EvaluateProgram(d.C.Prog, d.Art.BlockCounts, d.Prof.Counts, true)
			c.origNaive = Cell{Value: nv.TakenRate(), Valid: true}
			c.origPH = Cell{Value: pv.TakenRate(), Valid: true}
		} else {
			s.countLiveRun()
			c.origNaive, c.origPH, err = layoutRates(d.C.Prog, s.Cfg)
			if err != nil {
				return col{}, err
			}
		}

		static := predict.ProfileStatic(d.Prof.Counts)
		choices, err := s.selectFor(d, statemachine.Options{
			MaxStates:  5,
			MaxPathLen: 1,
		})
		if err != nil {
			return col{}, err
		}
		clone := ir.CloneProgram(d.C.Prog)
		if _, err := replicate.ApplyOpts(clone, choices, static.Preds,
			replicate.Options{MaxSizeFactor: 3}); err != nil {
			return col{}, err
		}
		s.countLiveRun()
		c.replNaive, c.replPH, err = layoutRates(clone, s.Cfg)
		if err != nil {
			return col{}, err
		}
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

// layoutRates profiles one program (block counts + branch counts) on the
// configured backend and evaluates both layouts.
func layoutRates(prog *ir.Program, cfg ExpConfig) (naive, ph Cell, err error) {
	counts, bc, err := countingRun(prog, cfg)
	if err != nil {
		return Cell{}, Cell{}, err
	}
	nv := layout.EvaluateProgram(prog, bc, counts, false)
	pv := layout.EvaluateProgram(prog, bc, counts, true)
	return Cell{Value: nv.TakenRate(), Valid: true}, Cell{Value: pv.TakenRate(), Valid: true}, nil
}

// countingRun executes a program with per-site branch counts and per-block
// execution counts enabled — the two inputs of the layout and scope
// experiments.
func countingRun(prog *ir.Program, cfg ExpConfig) (*trace.Counts, [][]uint64, error) {
	n := prog.NumberBranches(false)
	counts := trace.NewCounts(n)
	ep, err := cfg.backend().Compile(prog)
	if err != nil {
		return nil, nil, err
	}
	m := ep.NewMachine()
	m.EnableBlockCounts()
	m.SetHook(interp.BranchHook(counts))
	m.SetMaxBranches(cfg.Budget)
	if cfg.Seed != 0 {
		if err := m.SetGlobal("wseed", cfg.Seed); err != nil {
			return nil, nil, err
		}
	}
	if sc := scaleFor(cfg); sc != 0 {
		if err := m.SetGlobal("wscale", sc); err != nil {
			return nil, nil, err
		}
	}
	if _, err := m.Run(); err != nil && !errors.Is(err, interp.ErrLimit) {
		return nil, nil, err
	}
	return counts, m.BlockCounts(), nil
}
