package bench

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/predict"
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
// workload d's replica with machines of at most states states. The clone
// is measured by walking the workload's recorded trace, or by a live
// counting run in a ForceLive suite.
func (s *Suite) replicaFor(d *WorkloadData, states int) (*replica, error) {
	key := fmt.Sprintf("%sreplica/%s/n%d", s.prefix, d.C.Workload.Name, states)
	return runner.Cached(s.eng.Cache(), key, func() (*replica, error) {
		choices, err := s.selectFor(d, statemachine.Options{MaxStates: states, MaxPathLen: 1})
		if err != nil {
			return nil, err
		}
		clone := ir.CloneProgram(d.C.Prog)
		st, err := replicate.ApplyOpts(clone, choices, predict.ProfileStatic(d.Prof.Counts).Preds,
			replicate.Options{MaxSizeFactor: 3})
		if err != nil {
			return nil, err
		}
		r := &replica{Prog: clone, Size: Cell{Value: st.SizeFactor(), Valid: true}}
		res, ok, err := s.walkClone(d, clone, s.Cfg.Seed)
		if err != nil {
			return nil, err
		}
		if ok {
			r.Rate, r.Counts, r.BlockCounts = rateCell(res.Mispredicted, res.Predicted), res.Counts, res.BlockCounts
			return r, nil
		}
		s.countLiveRun()
		counts, bc, mc, err := countingRun(clone, s.Cfg)
		if err != nil {
			return nil, err
		}
		r.Rate, r.Counts, r.BlockCounts = rateCell(mc.Mispredicted, mc.Predicted), counts, bc
		return r, nil
	})
}

// walkClone measures a transformed clone of workload d on dataset seed by
// walking it along that dataset's recorded trace (replicate.Walk): the
// clone follows its original's block path, so the walk observes exactly
// what a live counting run would, without interpreting anything. ok is
// false in a ForceLive suite and when the walk cannot reproduce the run's
// stop; the caller then runs the clone live.
func (s *Suite) walkClone(d *WorkloadData, prog *ir.Program, seed int64) (res *replicate.WalkResult, ok bool, err error) {
	if s.Cfg.ForceLive {
		return nil, false, nil
	}
	art, err := s.artifactFor(d.C, seed)
	if err != nil {
		return nil, false, err
	}
	res, err = replicate.Walk(context.Background(), prog, art.Trace, replicate.WalkLimits{MaxBranches: s.Cfg.Budget})
	if errors.Is(err, replicate.ErrWalkFallback) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("bench: walking the clone of %s: %w", d.C.Workload.Name, err)
	}
	s.countWalk()
	return res, true, nil
}

// cloneRate is the measured misprediction rate of a transformed clone of
// workload d on dataset seed: walked along the recorded trace, or run live
// when walkClone cannot serve it.
func (s *Suite) cloneRate(d *WorkloadData, prog *ir.Program, seed int64) (Cell, error) {
	res, ok, err := s.walkClone(d, prog, seed)
	if err != nil {
		return Cell{}, err
	}
	if ok {
		return rateCell(res.Mispredicted, res.Predicted), nil
	}
	return s.measuredRate(prog, RunConfig{Budget: s.Cfg.Budget, Seed: seed, Scale: scaleFor(s.Cfg)})
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

// countingRun executes a program on cfg's dataset with per-site
// branch counts and per-block execution counts enabled — the inputs of the
// layout and scope experiments — and returns them with the run counters.
func countingRun(prog *ir.Program, cfg ExpConfig) (*trace.Counts, [][]uint64, exec.Counters, error) {
	n := prog.NumberBranches(false)
	counts := trace.NewCounts(n)
	m, err := newMachine(prog, RunConfig{Budget: cfg.Budget, Seed: cfg.Seed, Scale: scaleFor(cfg)})
	if err != nil {
		return nil, nil, exec.Counters{}, err
	}
	m.EnableBlockCounts()
	m.SetHook(interp.BranchHook(counts))
	if _, err := m.Run(); err != nil && !errors.Is(err, interp.ErrLimit) {
		return nil, nil, exec.Counters{}, err
	}
	return counts, m.BlockCounts(), m.Counters(), nil
}
