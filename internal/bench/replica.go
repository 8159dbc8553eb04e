package bench

import (
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
// one live run of it on that dataset observed. The execution-bound
// experiments differ only in which of these counters they read, so each
// (workload, size) replica is built and run once per suite. Replicas are
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
// workload d's replica with machines of at most states states. The live
// run is counted in the engine stats; a ForceLive suite uses replicas too,
// since the replicated program has no recorded trace either way.
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
		s.countLiveRun()
		counts, bc, mc, err := countingRun(clone, s.Cfg)
		if err != nil {
			return nil, err
		}
		return &replica{
			Prog:        clone,
			Size:        Cell{Value: st.SizeFactor(), Valid: true},
			Rate:        rateCell(mc.Mispredicted, mc.Predicted),
			Counts:      counts,
			BlockCounts: bc,
		}, nil
	})
}

// replicaRate returns the measured misprediction rate of workload d's
// replica on dataset seed: the replica's own run on the suite's dataset,
// otherwise one more live run of its program, memoised per seed.
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
		return s.measuredRate(r.Prog, RunConfig{Budget: s.Cfg.Budget, Seed: seed, Scale: scaleFor(s.Cfg)})
	})
}

// countingRun executes a program on cfg's dataset with per-site
// branch counts and per-block execution counts enabled — the inputs of the
// layout and scope experiments — and returns them with the run counters.
func countingRun(prog *ir.Program, cfg ExpConfig) (*trace.Counts, [][]uint64, exec.Counters, error) {
	n := prog.NumberBranches(false)
	counts := trace.NewCounts(n)
	ep, err := cfg.backend().Compile(prog)
	if err != nil {
		return nil, nil, exec.Counters{}, err
	}
	m := ep.NewMachine()
	m.EnableBlockCounts()
	m.SetHook(interp.BranchHook(counts))
	m.SetMaxBranches(cfg.Budget)
	if cfg.Seed != 0 {
		if err := m.SetGlobal("wseed", cfg.Seed); err != nil {
			return nil, nil, exec.Counters{}, err
		}
	}
	if sc := scaleFor(cfg); sc != 0 {
		if err := m.SetGlobal("wscale", sc); err != nil {
			return nil, nil, exec.Counters{}, err
		}
	}
	if _, err := m.Run(); err != nil && !errors.Is(err, interp.ErrLimit) {
		return nil, nil, exec.Counters{}, err
	}
	return counts, m.BlockCounts(), m.Counters(), nil
}
