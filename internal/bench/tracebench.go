package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/trace"
)

// TraceMeasurement is one workload's trace-plane replay throughput: the
// same recorded slab decoded three ways, reporting events per second of
// wall clock (best of Rounds rounds per mode).
type TraceMeasurement struct {
	Workload string
	Budget   uint64
	Rounds   int
	// Events and EncodedBytes describe the recorded slab.
	Events       uint64
	EncodedBytes int
	// SinglePassEventsPerSec decodes event-at-a-time through the
	// historical per-event callback — the pre-run-aware baseline.
	SinglePassEventsPerSec float64
	// RunAwareEventsPerSec is the fused run-aware count replay.
	RunAwareEventsPerSec float64
	// ProfileEventsPerSec replays the full five-table profile bundle.
	ProfileEventsPerSec float64
	// Speedup is run-aware over single-pass.
	Speedup float64
}

// MeasureTrace records every named workload (nil = the whole suite) to
// its branch budget once, then times replaying the slab in each mode.
// Correctness of each mode against per-event replay is pinned by the
// trace and bench test suites; this only measures. Count totals must
// still agree across modes — a rate from a diverged decode would be
// meaningless.
func MeasureTrace(names []string, budget uint64, rounds int) ([]TraceMeasurement, error) {
	if budget == 0 {
		budget = 500_000
	}
	if rounds <= 0 {
		rounds = 3
	}
	ws := Workloads()
	if len(names) > 0 {
		ws = ws[:0]
		for _, n := range names {
			w, err := ByName(n)
			if err != nil {
				return nil, err
			}
			ws = append(ws, w)
		}
	}
	out := make([]TraceMeasurement, 0, len(ws))
	for _, w := range ws {
		c, err := Compile(w)
		if err != nil {
			return nil, err
		}
		rec, err := core.Record(context.Background(), c.Prog, RunConfig{Budget: budget, Scale: core.FullScale})
		if err != nil {
			return nil, fmt.Errorf("bench: trace measurement %s: %w", w.Name, err)
		}
		slab := rec.Slab
		m := TraceMeasurement{
			Workload:     w.Name,
			Budget:       budget,
			Rounds:       rounds,
			Events:       slab.Len(),
			EncodedBytes: slab.EncodedBytes(),
		}

		counts := trace.NewCounts(c.NSites)
		taken := func() uint64 {
			var t uint64
			for _, v := range counts.Taken {
				t += v
			}
			return t
		}
		reset := func() {
			clear(counts.Taken)
			clear(counts.NotTaken)
		}

		var wantTaken uint64
		timeMode := func(replay func()) float64 {
			best := time.Duration(1<<63 - 1)
			var got uint64
			for r := 0; r < rounds; r++ {
				reset()
				start := time.Now()
				replay()
				if d := time.Since(start); d < best {
					best = d
				}
				got = taken()
			}
			if wantTaken == 0 {
				wantTaken = got
			} else if got != wantTaken {
				panic(fmt.Sprintf("bench: trace measurement %s: replay modes diverge (%d taken vs %d)",
					w.Name, got, wantTaken))
			}
			return float64(slab.Len()) / best.Seconds()
		}

		m.SinglePassEventsPerSec = timeMode(func() { eachBranch(slab, counts.RecordBranch) })
		m.RunAwareEventsPerSec = timeMode(func() { slab.ReplayInto(counts) })

		best := time.Duration(1<<63 - 1)
		for r := 0; r < rounds; r++ {
			p := profile.New(c.NSites, profile.Options{LocalK: 9, GlobalK: 9, PathM: 3})
			start := time.Now()
			slab.ReplayInto(p)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		m.ProfileEventsPerSec = float64(slab.Len()) / best.Seconds()

		if m.SinglePassEventsPerSec > 0 {
			m.Speedup = m.RunAwareEventsPerSec / m.SinglePassEventsPerSec
		}
		out = append(out, m)
	}
	return out, nil
}

// TraceTable renders the measurements as a result table.
func TraceTable(ms []TraceMeasurement) *Table {
	t := &Table{
		ID:    "tracebench",
		Title: "Trace replay throughput (million events/s, recorded slabs)",
	}
	single := Row{Name: "event-at-a-time"}
	run := Row{Name: "run-aware fused"}
	prof := Row{Name: "profile bundle"}
	speedup := Row{Name: "speedup (run-aware)"}
	for _, m := range ms {
		t.Cols = append(t.Cols, m.Workload)
		single.Cells = append(single.Cells, Cell{Value: m.SinglePassEventsPerSec / 1e6, Valid: true})
		run.Cells = append(run.Cells, Cell{Value: m.RunAwareEventsPerSec / 1e6, Valid: true})
		prof.Cells = append(prof.Cells, Cell{Value: m.ProfileEventsPerSec / 1e6, Valid: true})
		speedup.Cells = append(speedup.Cells, Cell{Value: m.Speedup, Valid: true})
	}
	t.Rows = append(t.Rows, single, run, prof, speedup)
	return t
}

// eachBranch pulls the slab's events one at a time through its Cursor and
// calls fn for every conditional branch: the single-pass mode's per-event
// callback.
func eachBranch(slab *trace.Slab, fn func(site int32, taken bool)) {
	cur := slab.Cursor()
	for ev, ok := cur.Next(); ok; ev, ok = cur.Next() {
		if !ev.Switch {
			fn(ev.Site, ev.Taken)
		}
	}
}
