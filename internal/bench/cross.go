package bench

import (
	"repro/internal/ir"
	"repro/internal/predict"
	"repro/internal/replicate"
	"repro/internal/runner"
)

// CrossDataset runs the paper's §6 / [FF92] sensitivity experiment: train
// the profile and the replication machines on one dataset, then measure on
// a different one. The replicated rows are *measured* — the transformed
// program is walked along each dataset's recorded trace with its static
// annotations (or run live under ForceLive) — so they also validate the
// whole pipeline end to end. One parallel job per workload; the
// alternate-dataset counts and the replica come from the artifact cache.
func (s *Suite) CrossDataset() (*Table, error) {
	t := &Table{
		ID:    "crossdataset",
		Title: "Dataset sensitivity: trained on dataset A, measured on A and on B (%)",
	}
	type col struct{ profSelf, profCross, replSelf, replCross Cell }
	cols, err := runner.Map(s.eng, s.Data, func(_ int, d *WorkloadData) (col, error) {
		var c col
		// Profile self: trained and scored on dataset A.
		pr := predict.ProfileResult(d.Prof.Counts)
		c.profSelf = rateCell(pr.Misses, pr.Total)

		// Profile cross: A-trained majority vector scored on dataset B.
		static := predict.ProfileStatic(d.Prof.Counts)
		crossCounts, err := s.countsFor(d, s.Cfg.CrossSeed)
		if err != nil {
			return col{}, err
		}
		cr := static.Score(crossCounts)
		c.profCross = rateCell(cr.Misses, cr.Total)

		// Replication trained on A (realizable machines only), measured on
		// both datasets by walking the transformed program.
		if c.replSelf, err = s.replicaRate(d, replicaStates, s.Cfg.Seed); err != nil {
			return col{}, err
		}
		if c.replCross, err = s.replicaRate(d, replicaStates, s.Cfg.CrossSeed); err != nil {
			return col{}, err
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	t.Cols = s.colNames()
	profSelf := Row{Name: "profile self"}
	profCross := Row{Name: "profile cross"}
	replSelf := Row{Name: "replicated self (measured)"}
	replCross := Row{Name: "replicated cross (measured)"}
	for _, c := range cols {
		profSelf.Cells = append(profSelf.Cells, c.profSelf)
		profCross.Cells = append(profCross.Cells, c.profCross)
		replSelf.Cells = append(replSelf.Cells, c.replSelf)
		replCross.Cells = append(replCross.Cells, c.replCross)
	}
	t.Rows = append(t.Rows, profSelf, profCross, replSelf, replCross)
	return t, nil
}

// measuredRate runs a statically annotated program live and returns its
// real misprediction rate, counted as a live run in the engine stats. It
// serves ForceLive suites and the runs a walk cannot reproduce (see
// cloneRate).
func (s *Suite) measuredRate(prog *ir.Program, cfg RunConfig) (Cell, error) {
	s.countLiveRun()
	m, err := runProgram(prog, cfg)
	if err != nil {
		return Cell{}, err
	}
	mc := m.Counters()
	return rateCell(mc.Mispredicted, mc.Predicted), nil
}

// MeasuredReplication transforms every workload with realizable machines
// and measures the misprediction rate and size factor of the transformed
// programs — the end-to-end validation of the paper's headline claim.
// One parallel job per workload; the replicated side is the workload's
// replica, shared with the other execution-bound experiments.
func (s *Suite) MeasuredReplication(maxStates int) (*Table, error) {
	t := &Table{
		ID:    "measured",
		Title: "Measured replication: interpreter-verified rates and sizes",
	}
	type col struct{ base, repl, size Cell }
	cols, err := runner.Map(s.eng, s.Data, func(_ int, d *WorkloadData) (col, error) {
		var c col
		static := predict.ProfileStatic(d.Prof.Counts)
		var err error
		if d.Art != nil {
			// The baseline clone differs from the original only in its
			// Pred annotations, so its measured rate is the static vector
			// scored over the recorded trace — no interpreter run needed.
			c.base = s.staticTraceRate(d.Art, static.Preds)
		} else {
			baseline := ir.CloneProgram(d.C.Prog)
			replicate.Annotate(baseline, static.Preds)
			c.base, err = s.measuredRate(baseline, RunConfig{Budget: s.Cfg.Budget, Seed: s.Cfg.Seed, Scale: scaleFor(s.Cfg)})
			if err != nil {
				return col{}, err
			}
		}

		r, err := s.replicaFor(d, maxStates)
		if err != nil {
			return col{}, err
		}
		c.repl, c.size = r.Rate, r.Size
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	t.Cols = s.colNames()
	base := Row{Name: "profile baseline (measured)"}
	repl := Row{Name: "replicated (measured)"}
	size := Row{Name: "size factor"}
	for _, c := range cols {
		base.Cells = append(base.Cells, c.base)
		repl.Cells = append(repl.Cells, c.repl)
		size.Cells = append(size.Cells, c.size)
	}
	t.Rows = append(t.Rows, base, repl, size)
	return t, nil
}
