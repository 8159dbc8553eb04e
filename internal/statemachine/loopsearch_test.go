package statemachine

import (
	"reflect"
	"testing"

	"repro/internal/profile"
)

// exhaustiveLoopMachine is the reference BestLoopMachine is checked
// against: it scores every suffix-closed set of exactly n states over both
// bases and keeps the first best one.
func exhaustiveLoopMachine(tab []profile.Pair, k, n int) *LoopMachine {
	n, maxLen := searchBounds(k, n)
	t := NewCountTree(tab, k)
	var best []Pattern
	var bestHits uint64
	consider := func(states []Pattern) {
		if h := scoreStatesFast(t, states); best == nil || h > bestHits {
			best, bestHits = append(best[:0], states...), h
		}
	}
	enumerateSuffixClosed(base1, n, maxLen, consider)
	if n >= 4 && maxLen >= 2 {
		enumerateSuffixClosed(base2, n, maxLen, consider)
	}
	sortPatterns(best)
	hits, total, preds := scoreStates(t, best)
	return &LoopMachine{States: best, PredTaken: preds, Init: initialState(t, best), Hits: hits, Total: total}
}

// noisyTable builds a k-bit local pattern table from a random pattern of
// the given period repeated for 4,000 events, each outcome flipped with
// probability noisePct/100.
func noisyTable(seed uint32, k, period, noisePct int) []profile.Pair {
	x := seed*2654435761 + 1
	next := func() uint32 {
		x = x*1664525 + 1013904223
		return x >> 8
	}
	pat := make([]bool, period)
	for i := range pat {
		pat[i] = next()&1 == 1
	}
	st := profile.NewStreams(1)
	for i := 0; i < 4000; i++ {
		o := pat[i%period]
		if int(next()%100) < noisePct {
			o = !o
		}
		st.RecordBranch(0, o)
	}
	return profile.LocalFromStreams(st, k).Table(0)
}

// checkLoopSearch holds BestLoopMachine(tab, k, n) to the exhaustive
// optimum: equal Hits and Total, a suffix-closed complete state set of the
// clamped size whose score is Hits, and the same machine on a second call.
func checkLoopSearch(t *testing.T, tab []profile.Pair, k, n int) {
	t.Helper()
	got := BestLoopMachine(tab, k, n)
	want := exhaustiveLoopMachine(tab, k, n)
	if got.Hits != want.Hits || got.Total != want.Total {
		t.Fatalf("k=%d n=%d: search %d/%d hits, exhaustive %d/%d (%v vs %v)",
			k, n, got.Hits, got.Total, want.Hits, want.Total, got, want)
	}
	size, maxLen := searchBounds(k, n)
	if got.NumStates() != size {
		t.Fatalf("k=%d n=%d: %d states, want %d", k, n, got.NumStates(), size)
	}
	baseLen := got.States[0].Len
	inSet := map[Pattern]bool{}
	bases := 0
	for _, p := range got.States {
		inSet[p] = true
		if p.Len == baseLen {
			bases++
		}
	}
	if baseLen > 2 || bases != 1<<baseLen {
		t.Fatalf("k=%d n=%d: %v lacks a complete base", k, n, got)
	}
	for i, p := range got.States {
		if int(p.Len) > maxLen {
			t.Fatalf("k=%d n=%d: state %v longer than %d", k, n, p, maxLen)
		}
		if p.Len > baseLen && !inSet[p.Suffix(p.Len-1)] {
			t.Fatalf("k=%d n=%d: %v is not suffix-closed at %v", k, n, got, p)
		}
		for _, d := range []bool{false, true} {
			if _, ok := got.NextIndex(i, d); !ok {
				t.Fatalf("k=%d n=%d: %v is incomplete at %v", k, n, got, p)
			}
		}
	}
	if h, _, _ := scoreStates(NewCountTree(tab, k), got.States); h != got.Hits {
		t.Fatalf("k=%d n=%d: state set scores %d, machine says %d", k, n, h, got.Hits)
	}
	if again := BestLoopMachine(tab, k, n); !reflect.DeepEqual(again, got) {
		t.Fatalf("k=%d n=%d: nondeterministic: %v then %v", k, n, got, again)
	}
}

// CheckLoopSearch lets the external test package run the oracle on
// catalog-site tables, which this package cannot record without an import
// cycle.
var CheckLoopSearch = checkLoopSearch

// NoisyTable is noisyTable for the external test package.
var NoisyTable = noisyTable

func FuzzLoopMachineSearch(f *testing.F) {
	f.Add(uint32(1), uint8(8), uint8(8), uint8(7), uint8(10))
	f.Add(uint32(2), uint8(0), uint8(0), uint8(2), uint8(0))
	f.Add(uint32(3), uint8(4), uint8(5), uint8(12), uint8(30))
	f.Add(uint32(4), uint8(2), uint8(3), uint8(1), uint8(49))
	f.Fuzz(func(t *testing.T, seed uint32, k, n, period, noise uint8) {
		kk := 1 + int(k)%9
		nn := 2 + int(n)%(min(10, 1<<(kk+1)-2)-1)
		checkLoopSearch(t, noisyTable(seed, kk, 1+int(period)%16, int(noise)%50), kk, nn)
	})
}

func TestLoopMachineOversizeClamps(t *testing.T) {
	for _, tc := range []struct{ k, n, want int }{{2, 7, 6}, {1, 3, 2}, {3, 40, 14}} {
		tab := localTable(repeat("1101001", 200), tc.k)
		var full uint64
		for _, p := range tab {
			full += p.Hits()
		}
		m := BestLoopMachine(tab, tc.k, tc.n)
		if m.NumStates() != tc.want || m.Hits != full {
			t.Fatalf("k=%d n=%d: %d states, %d hits; want the complete %d-state tree with the table's %d hits",
				tc.k, tc.n, m.NumStates(), m.Hits, tc.want, full)
		}
		st := profile.NewStreams(1)
		for _, ch := range repeat("1101001", 200) {
			st.RecordBranch(0, ch == '1')
		}
		if ex := BestLoopMachineExact(tab, tc.k, tc.n, st.Site(0)); ex == nil || ex.NumStates() != tc.want {
			t.Fatalf("k=%d n=%d: exact search gave %v, want %d states", tc.k, tc.n, ex, tc.want)
		}
	}
}
