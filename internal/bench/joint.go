package bench

import (
	"repro/internal/ir"
	"repro/internal/predict"
	"repro/internal/replicate"
	"repro/internal/runner"
	"repro/internal/statemachine"
)

// JointTable runs the §6 joint-machine experiment: the same strategy
// selection applied sequentially (per-branch machines, same-loop branches
// multiply copies) versus jointly (one minimised machine per loop), both
// measured by walking the transformed programs along the recorded trace
// (live under ForceLive). Joint replication should match the sequential
// misprediction rate at equal or lower code size. One parallel job per
// workload.
func (s *Suite) JointTable() (*Table, error) {
	t := &Table{
		ID:    "joint",
		Title: "Sequential vs joint (§6) replication: measured rate and size factor",
	}
	const maxStates = 4
	type col struct{ seqRate, jointRate, seqSize, jointSize Cell }
	cols, err := runner.Map(s.eng, s.Data, func(_ int, d *WorkloadData) (col, error) {
		var c col
		static := predict.ProfileStatic(d.Prof.Counts)
		choices, err := s.selectFor(d, statemachine.Options{
			MaxStates:  maxStates,
			MaxPathLen: 1,
		})
		if err != nil {
			return col{}, err
		}
		seq := ir.CloneProgram(d.C.Prog)
		seqStats, err := replicate.ApplyOpts(seq, choices, static.Preds, replicate.Options{MaxSizeFactor: 4})
		if err != nil {
			return col{}, err
		}
		c.seqRate, err = s.cloneRate(d, seq, s.Cfg.Seed)
		if err != nil {
			return col{}, err
		}
		c.seqSize = Cell{Value: seqStats.SizeFactor(), Valid: true}

		joint := ir.CloneProgram(d.C.Prog)
		jointStats, err := replicate.ApplyJoint(joint, choices, static.Preds, replicate.Options{MaxSizeFactor: 4})
		if err != nil {
			return col{}, err
		}
		c.jointRate, err = s.cloneRate(d, joint, s.Cfg.Seed)
		if err != nil {
			return col{}, err
		}
		c.jointSize = Cell{Value: jointStats.SizeFactor(), Valid: true}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	t.Cols = s.colNames()
	seqRate := Row{Name: "sequential rate"}
	jointRate := Row{Name: "joint rate"}
	seqSize := Row{Name: "sequential size factor"}
	jointSize := Row{Name: "joint size factor"}
	for _, c := range cols {
		seqRate.Cells = append(seqRate.Cells, c.seqRate)
		jointRate.Cells = append(jointRate.Cells, c.jointRate)
		seqSize.Cells = append(seqSize.Cells, c.seqSize)
		jointSize.Cells = append(jointSize.Cells, c.jointSize)
	}
	t.Rows = append(t.Rows, seqRate, jointRate, seqSize, jointSize)
	return t, nil
}
