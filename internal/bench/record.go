package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/trace"
)

// artifactFor records — or fetches from the single-flight artifact cache —
// the trace of one workload under the given dataset seed. The recording
// is the record-once product of interpreting that (workload, seed, scale,
// budget) cell: every experiment that only needs to observe the branch
// stream — the strategy tables, fill rates, state-machine scoring, the
// prediction side of the figures — replays its slab, and the layout and
// scope experiments read its block counts, so each cell is executed at
// most once per krallbench invocation.
func (s *Suite) artifactFor(c *Compiled, seed int64) (*core.Recording, error) {
	key := fmt.Sprintf("%strace/%s/seed%d", s.prefix, c.Workload.Name, seed)
	return runner.Cached(s.eng.Cache(), key, func() (*core.Recording, error) {
		rec, err := core.Record(context.Background(), c.Prog, s.cell(seed))
		if err != nil {
			return nil, fmt.Errorf("bench: recording %s: %w", c.Workload.Name, err)
		}
		s.countRecord(int64(rec.Slab.Len()))
		return rec, nil
	})
}

// replay feeds the artifact's trace into the collectors and counts one
// replay pass serving len(cs) consumers.
func (s *Suite) replay(art *core.Recording, cs ...trace.Collector) {
	art.Slab.ReplayInto(cs...)
	s.countReplay(int64(art.Slab.Len()))
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
