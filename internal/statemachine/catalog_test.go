package statemachine_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/profile"
	"repro/internal/statemachine"
)

// TestLoopMachineDPMatchesExhaustive holds the search to the exhaustive
// optimum for every history length k in 1..9 and every size n in
// 2..min(10, 2^(k+1)−2), on noisy random-period tables and on the local
// pattern table of the busiest in-loop branch of every catalog workload.
func TestLoopMachineDPMatchesExhaustive(t *testing.T) {
	sizes := func(k int) []int {
		var out []int
		for n := 2; n <= min(10, 1<<(k+1)-2); n++ {
			out = append(out, n)
		}
		return out
	}
	t.Run("noisy", func(t *testing.T) {
		for k := 1; k <= 9; k++ {
			for _, n := range sizes(k) {
				for seed := uint32(1); seed <= 2; seed++ {
					period := 2 + int(seed)*k%9
					statemachine.CheckLoopSearch(t, statemachine.NoisyTable(seed, k, period, 5*int(seed)), k, n)
				}
			}
		}
	})
	for _, w := range bench.Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			c, err := bench.Compile(w)
			if err != nil {
				t.Fatal(err)
			}
			lh := profile.NewLocalHistory(c.NSites, 9)
			if _, err := c.Run(bench.RunConfig{Budget: 20_000, Scale: 1 << 30}, lh); err != nil {
				t.Fatal(err)
			}
			site, busiest := int32(-1), uint64(0)
			for s := int32(0); int(s) < c.NSites; s++ {
				if c.Features[s].LoopDepth == 0 {
					continue
				}
				var n uint64
				for _, p := range lh.Table(s) {
					n += p.Total()
				}
				if n > busiest {
					site, busiest = s, n
				}
			}
			if site < 0 {
				t.Skip("no profiled in-loop branch")
			}
			for k := 1; k <= 9; k++ {
				tab := lh.Project(site, k)
				for _, n := range sizes(k) {
					statemachine.CheckLoopSearch(t, tab, k, n)
				}
			}
		})
	}
}

// TestRescoreChunksMatchEvents requires the run-folding Rescore to score
// like the event-by-event replay for every machine BestLoopMachineExact
// replays, at every profiled in-loop site of every catalog workload and
// every size the experiments use.
func TestRescoreChunksMatchEvents(t *testing.T) {
	for _, w := range bench.Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			c, err := bench.Compile(w)
			if err != nil {
				t.Fatal(err)
			}
			lh := profile.NewLocalHistory(c.NSites, 9)
			st := profile.NewStreams(c.NSites)
			if _, err := c.Run(bench.RunConfig{Budget: 20_000, Scale: 1 << 30}, lh, st); err != nil {
				t.Fatal(err)
			}
			for s := int32(0); int(s) < c.NSites; s++ {
				if c.Features[s].LoopDepth == 0 || st.Site(s).Len() == 0 {
					continue
				}
				for n := 2; n <= 10; n++ {
					statemachine.CheckExactCandidates(t, lh.Table(s), 9, n, st.Site(s))
				}
			}
		})
	}
}
