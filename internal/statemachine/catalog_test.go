package statemachine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
			st := profile.NewStreams(c.NSites)
			if _, err := c.Run(bench.RunConfig{Budget: 20_000, Scale: 1 << 30}, st); err != nil {
				t.Fatal(err)
			}
			lh := profile.LocalFromStreams(st, 9)
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

// TestRescoreChunksMatchEvents requires the shared replay pass to score
// every machine BestLoopMachineExact replays like the event-by-event
// replay, at every profiled in-loop site of every catalog workload and
// every size the experiments use.
func TestRescoreChunksMatchEvents(t *testing.T) {
	for _, w := range bench.Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			c, err := bench.Compile(w)
			if err != nil {
				t.Fatal(err)
			}
			st := profile.NewStreams(c.NSites)
			if _, err := c.Run(bench.RunConfig{Budget: 20_000, Scale: 1 << 30}, st); err != nil {
				t.Fatal(err)
			}
			lh := profile.LocalFromStreams(st, 9)
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

// selectSink keeps BenchmarkSelectCatalog's results live.
var selectSink []statemachine.Choice

// BenchmarkSelectCatalog times Select with exact loop replay over the 8
// catalog workloads' profiles (default dataset, 200k-branch budget),
// recorded outside the timer. n5 is the experiments' machine size; n10 is
// the service's largest, where enumerating the suffix-closed sets rather
// than replaying them dominates.
func BenchmarkSelectCatalog(b *testing.B) {
	type site struct {
		prof *profile.Profile
		c    *bench.Compiled
	}
	var cat []site
	for _, w := range bench.Workloads() {
		c, err := bench.Compile(w)
		if err != nil {
			b.Fatal(err)
		}
		prof, _, err := c.ProfileRun(bench.RunConfig{Budget: 200_000, Scale: 1 << 30}, profile.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cat = append(cat, site{prof, c})
	}
	for _, n := range []int{5, 10} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for range b.N {
				for _, s := range cat {
					selectSink = statemachine.Select(s.prof, s.c.Features, statemachine.Options{MaxStates: n})
				}
			}
		})
	}
}

// TestTableScoreIsNotABound records why the exact search replays every
// candidate instead of stopping once the best replay reaches the next
// candidate's table score: the table score does not bound the replayed
// hits from above. The local pattern table leaves out each site's first K
// warm-up events and the replay counts them, so on abalone's site 1 the
// 2-state machine realises more hits than its table score.
func TestTableScoreIsNotABound(t *testing.T) {
	w, err := bench.ByName("abalone")
	if err != nil {
		t.Fatal(err)
	}
	c, err := bench.Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := c.ProfileRun(bench.RunConfig{Budget: 200_000, Scale: 1 << 30}, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const site, n = 1, 2
	local := prof.Local()
	table, hits := statemachine.ExactCandidateScores(local.Table(site), local.K, n, prof.Streams.Site(site))
	if hits[0] <= table[0] {
		t.Fatalf("abalone site %d, %d states: replay %d hits, table score %d; want a replay above its table score",
			site, n, hits[0], table[0])
	}
	t.Logf("abalone site %d, %d states: table score %d, replayed hits %d", site, n, table[0], hits[0])
}

// pathMachinesDigest is the SHA-256 of every path machine
// TestPathMachinesCatalog builds, as first built from per-site maps of the
// path table copied and sorted by key.
const pathMachinesDigest = "e035a8fcc056cbdee58f1f2ac5512fd3d23fa80cb94c396c5aa1c6aa22a1262d"

// TestPathMachinesCatalog builds BestPathMachine on every site of every
// catalog workload's 200k-branch profile (paths of 3), at 2..5 states and
// MaxPathLen 1..3, and pins the machines (paths, predictions, state counts
// and score) by digest: the path table's layout must not change a single
// selected machine.
func TestPathMachinesCatalog(t *testing.T) {
	h := sha256.New()
	for _, w := range bench.Workloads() {
		c, err := bench.Compile(w)
		if err != nil {
			t.Fatal(err)
		}
		prof, _, err := c.ProfileRun(bench.RunConfig{Budget: 200_000, Scale: 1 << 30}, profile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for s := int32(0); int(s) < c.NSites; s++ {
			for n := 2; n <= 5; n++ {
				for l := 1; l <= 3; l++ {
					m := statemachine.BestPathMachine(prof.Path, s, n, l)
					fmt.Fprintf(h, "%s %d %d %d: %v %v %v %v %d/%d\n", w.Name, s, n, l,
						m.Paths, m.PredTaken, m.StatePairs, m.CatchPair, m.Hits, m.Total)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pathMachinesDigest {
		t.Fatalf("path machines digest %s, want %s", got, pathMachinesDigest)
	}
}
