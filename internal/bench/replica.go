package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/replicate"
	"repro/internal/runner"
	"repro/internal/statemachine"
	"repro/internal/trace"
)

// replicaStates is the machine size of the replicated program the
// cross-dataset, layout and scope experiments measure (and krallbench's
// default for the measured-replication experiment).
const replicaStates = 5

// replica is the run-once product of one workload's replicated program:
// the transformed clone (realizable machines of at most the requested size,
// MaxPathLen 1, MaxSizeFactor 3, trained on the suite's dataset) and what
// one run of it on that dataset observed. The execution-bound experiments
// differ only in which of these counters they read, so each (workload,
// size) replica is built and measured once per suite. Replicas are
// immutable once cached.
type replica struct {
	// Prog is the replicated clone, for runs on other datasets and for
	// the layout and trace-formation passes over its blocks.
	Prog *ir.Program
	// Size is the clone's code size factor.
	Size Cell
	// Rate is the measured misprediction rate of the run.
	Rate Cell
	// Counts and BlockCounts are the run's per-site branch counts and
	// per-function, per-block execution counts.
	Counts      *trace.Counts
	BlockCounts [][]uint64
}

// replicaFor builds — or fetches from the single-flight artifact cache —
// workload d's replica with machines of at most states states, measured
// on the suite's dataset.
func (s *Suite) replicaFor(d *WorkloadData, states int) (*replica, error) {
	key := fmt.Sprintf("%sreplica/%s/n%d", s.prefix, d.C.Workload.Name, states)
	return runner.Cached(s.eng.Cache(), key, func() (*replica, error) {
		choices, err := s.selectFor(d, statemachine.Options{MaxStates: states, MaxPathLen: 1})
		if err != nil {
			return nil, err
		}
		p := s.profiled(d)
		clone, st, err := p.Transform(replicate.ApplyOpts, choices, p.Preds(), replicate.Options{MaxSizeFactor: 3})
		if err != nil {
			return nil, err
		}
		m, err := s.measure(d, clone, s.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		return &replica{
			Prog: clone, Size: Cell{Value: st.SizeFactor(), Valid: true},
			Rate: rateCell(m.Mispredicted, m.Predicted), Counts: m.Counts, BlockCounts: m.BlockCounts,
		}, nil
	})
}

// measure measures a program of workload d — the original, an annotated
// copy or a transformed clone — on dataset seed, with its branch and block
// counts. The suite takes no checksum from a measurement, so every program
// is walked along that dataset's recorded trace (core.Measure); it runs
// live where the walk cannot reproduce the run, and in a ForceLive suite
// (core.Count).
func (s *Suite) measure(d *WorkloadData, prog *ir.Program, seed int64) (core.Measurement, error) {
	var m core.Measurement
	var err error
	if s.Cfg.ForceLive {
		m, err = core.Count(context.Background(), prog, s.cell(seed))
	} else {
		var rec *core.Recording
		if rec, err = s.artifactFor(d.C, seed); err != nil {
			return core.Measurement{}, err
		}
		m, err = core.Measure(context.Background(), prog, s.cell(seed), rec)
	}
	if err != nil {
		return core.Measurement{}, fmt.Errorf("bench: measuring %s: %w", d.C.Workload.Name, err)
	}
	if m.Walked {
		s.countWalk()
	} else {
		s.countLiveRun()
	}
	return m, nil
}

// cloneRate is the measured misprediction rate of a program of workload d
// on dataset seed.
func (s *Suite) cloneRate(d *WorkloadData, prog *ir.Program, seed int64) (Cell, error) {
	m, err := s.measure(d, prog, seed)
	if err != nil {
		return Cell{}, err
	}
	return rateCell(m.Mispredicted, m.Predicted), nil
}

// replicaRate returns the measured misprediction rate of workload d's
// replica on dataset seed: the replica's own run on the suite's dataset,
// otherwise one more measurement of its program, memoised per seed.
func (s *Suite) replicaRate(d *WorkloadData, states int, seed int64) (Cell, error) {
	r, err := s.replicaFor(d, states)
	if err != nil {
		return Cell{}, err
	}
	if seed == s.Cfg.Seed {
		return r.Rate, nil
	}
	key := fmt.Sprintf("%sreplica/%s/n%d/seed%d", s.prefix, d.C.Workload.Name, states, seed)
	return runner.Cached(s.eng.Cache(), key, func() (Cell, error) {
		return s.cloneRate(d, r.Prog, seed)
	})
}
