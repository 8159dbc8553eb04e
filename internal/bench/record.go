package bench

import (
	"errors"
	"fmt"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/predict"
	"repro/internal/runner"
	"repro/internal/trace"
)

// RunArtifact is the record-once product of interpreting one (workload,
// seed, scale, budget) cell: the complete branch-event stream as a sealed
// trace slab, the run counters, and the per-block execution counts. Every
// experiment that only needs to observe the branch stream — the strategy
// tables, fill rates, state-machine scoring, the prediction side of the
// figures — replays the slab instead of re-interpreting the workload, so
// each cell is executed at most once per krallbench invocation. Artifacts
// are immutable once cached; a sealed slab is safe for concurrent replay.
type RunArtifact struct {
	Trace *trace.Slab
	// Branches/Steps mirror the interpreter counters of the recording run.
	Branches uint64
	Steps    uint64
	// Checksum/Prints capture the workload's output digest, letting replay
	// consumers verify they are looking at the run they think they are.
	Checksum uint64
	Prints   uint64
	// BlockCounts are the per-function, per-block execution counts of the
	// recording run (the layout and scope experiments' other input).
	BlockCounts [][]uint64
}

// artifactFor records — or fetches from the single-flight artifact cache —
// the trace of one workload under the given dataset seed. The recording run
// uses the machine's direct slab hook (SetRec), not the Collector
// interface, so recording costs one append per branch.
func (s *Suite) artifactFor(c *Compiled, seed int64) (*RunArtifact, error) {
	key := fmt.Sprintf("%strace/%s/seed%d", s.prefix, c.Workload.Name, seed)
	return runner.Cached(s.eng.Cache(), key, func() (*RunArtifact, error) {
		m, err := newMachine(c.Prog, RunConfig{Budget: s.Cfg.Budget, Seed: seed, Scale: scaleFor(s.Cfg)})
		if err != nil {
			return nil, err
		}
		m.EnableBlockCounts()
		slab := trace.NewSlab(int(s.Cfg.Budget))
		m.SetRec(slab)
		if _, err := m.Run(); err != nil && !errors.Is(err, interp.ErrLimit) {
			return nil, fmt.Errorf("bench: recording %s: %w", c.Workload.Name, err)
		}
		slab.Seal()
		s.countRecord(int64(slab.Len()))
		mc := m.Counters()
		return &RunArtifact{
			Trace:       slab,
			Branches:    mc.Branches,
			Steps:       mc.Steps,
			Checksum:    mc.Checksum,
			Prints:      mc.Prints,
			BlockCounts: m.BlockCounts(),
		}, nil
	})
}

// replay feeds the artifact's trace into the collectors and counts one
// replay pass serving len(cs) consumers.
func (s *Suite) replay(art *RunArtifact, cs ...trace.Collector) {
	art.Trace.ReplayInto(cs...)
	s.countReplay(int64(art.Trace.Len()))
}

// staticTraceRate scores a static prediction vector over a recorded trace.
// It is the replay equivalent of annotating a program clone and measuring
// it live: replicate.Annotate only sets Term.Pred — sites and control flow
// are untouched — so the annotated clone's branch stream is exactly the
// recorded one, and the interpreter's Predicted/Mispredicted counters
// reduce to predict.StaticScore's fold over the runs. The scorer is
// order-insensitive, so big traces shard across the engine's workers.
func (s *Suite) staticTraceRate(art *RunArtifact, preds []ir.Prediction) Cell {
	score := &predict.StaticScore{Preds: preds}
	art.Trace.ReplayPartitioned(s.workers(), score)
	s.countReplay(int64(art.Trace.Len()))
	return rateCell(score.Mispredicted, score.Predicted)
}

func (s *Suite) countRecord(events int64) {
	if s.eng != nil {
		s.eng.CountRecord(events)
	}
}

func (s *Suite) countReplay(events int64) {
	if s.eng != nil {
		s.eng.CountReplay(events)
	}
}

func (s *Suite) countWalk() {
	if s.eng != nil {
		s.eng.CountWalk()
	}
}

func (s *Suite) countLiveRun() {
	if s.eng != nil {
		s.eng.CountLiveRun()
	}
}

// workers is the engine's pool width, the partition count for sharded
// trace replay (1 when the suite runs without an engine).
func (s *Suite) workers() int {
	if s.eng != nil {
		return s.eng.Workers()
	}
	return 1
}
