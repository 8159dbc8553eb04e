package statemachine

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/profile"
)

// rescoreEvents is the reference Rescore is checked against: the stream
// replayed one outcome at a time.
func rescoreEvents(m *LoopMachine, st *profile.Stream) {
	d := m.delta()
	counts := make([]profile.Pair, len(m.States))
	s := m.Init
	for i, n := 0, st.Len(); i < n; i++ {
		o := st.Get(i)
		counts[s].Add(o)
		if o {
			s = d[s][1]
		} else {
			s = d[s][0]
		}
	}
	m.Hits, m.Total = 0, 0
	for i, c := range counts {
		m.PredTaken[i] = c.MajorityTaken()
		m.Hits += c.Hits()
		m.Total += c.Total()
	}
}

// randomStates draws a complete suffix-closed state set of at most n
// states over base1 or base2, with patterns no longer than maxLen, by
// adding random frontier extensions.
func randomStates(r *rand.Rand, n, maxLen int) []Pattern {
	base := base1
	if n >= 4 && maxLen >= 2 && r.IntN(2) == 0 {
		base = base2
	}
	states := append([]Pattern(nil), base...)
	var frontier []Pattern
	grow := func(p Pattern) {
		if int(p.Len) < maxLen {
			frontier = append(frontier, p.Extend(false), p.Extend(true))
		}
	}
	for _, p := range base {
		grow(p)
	}
	for len(states) < n && len(frontier) > 0 {
		i := r.IntN(len(frontier))
		p := frontier[i]
		frontier[i] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		states = append(states, p)
		grow(p)
	}
	sortPatterns(states)
	return states
}

// checkRescore replays st through m with Rescore and with rescoreEvents
// and requires equal Hits, Total and PredTaken.
func checkRescore(t *testing.T, m *LoopMachine, st *profile.Stream) {
	t.Helper()
	a := &LoopMachine{States: m.States, PredTaken: make([]bool, len(m.States)), Init: m.Init}
	a.Rescore(st)
	checkAgainstEvents(t, "Rescore", a, st)
}

// checkReplay scores all of ms in one shared replay pass with runs capped
// at maxLen and holds each to rescoreEvents.
func checkReplay(t *testing.T, ms []*LoopMachine, maxLen int, st *profile.Stream) {
	t.Helper()
	var r replay
	r.load(st, maxLen)
	r.score(ms)
	for _, m := range ms {
		checkAgainstEvents(t, "shared replay", m, st)
	}
}

// checkAgainstEvents requires m's Hits, Total and PredTaken to equal what
// rescoreEvents computes for its states and initial state.
func checkAgainstEvents(t *testing.T, how string, m *LoopMachine, st *profile.Stream) {
	t.Helper()
	b := &LoopMachine{States: m.States, PredTaken: make([]bool, len(m.States)), Init: m.Init}
	rescoreEvents(b, st)
	if m.Hits != b.Hits || m.Total != b.Total || !reflect.DeepEqual(m.PredTaken, b.PredTaken) {
		t.Fatalf("%v over %d outcomes: %s %d/%d hits %v, event replay %d/%d hits %v",
			m, st.Len(), how, m.Hits, m.Total, m.PredTaken, b.Hits, b.Total, b.PredTaken)
	}
}

// CheckExactCandidates replays every machine BestLoopMachineExact(tab, k,
// n, st) considers in its one shared pass and holds each to the
// event-by-event replay, for the external test package's catalog sites.
func CheckExactCandidates(t *testing.T, tab []profile.Pair, k, n int, st *profile.Stream) {
	t.Helper()
	_, maxLen := searchBounds(k, n)
	checkReplay(t, exactCandidates(NewCountTree(tab, k), n), maxLen, st)
}

// ExactCandidateScores returns the table score and the replayed hits of
// every machine BestLoopMachineExact(tab, k, n, st) considers, in replay
// order, for the external test package's catalog sites.
func ExactCandidateScores(tab []profile.Pair, k, n int, st *profile.Stream) (table, hits []uint64) {
	t := NewCountTree(tab, k)
	ms := exactCandidates(t, n)
	_, maxLen := searchBounds(k, n)
	var r replay
	r.load(st, maxLen)
	r.score(ms)
	for _, m := range ms {
		table = append(table, scoreStatesFast(t, m.States))
		hits = append(hits, m.Hits)
	}
	return table, hits
}

// TestStreamRuns checks the run iterator against Get on streams whose runs
// straddle word boundaries and whose length is not a multiple of 64.
func TestStreamRuns(t *testing.T) {
	for _, lens := range [][]int{{}, {1}, {64}, {63, 2}, {65}, {1, 64, 1}, {200, 3, 128, 7}} {
		var st profile.Stream
		for i, n := range lens {
			st.AppendRun(i%2 == 0, uint64(n))
		}
		var got []int
		at := 0
		st.Runs(func(taken bool, n int) {
			got = append(got, n)
			for j := at; j < at+n; j++ {
				if st.Get(j) != taken {
					t.Fatalf("%v: run at %d reports %v, outcome %d is %v", lens, at, taken, j, st.Get(j))
				}
			}
			at += n
		})
		if at != st.Len() || !slices.Equal(got, lens) {
			t.Fatalf("runs of %v: got %v covering %d of %d", lens, got, at, st.Len())
		}
	}
}

// FuzzRescore feeds random packed streams through sets of 1–16 random
// suffix-closed machines of assorted sizes that share one maxLen, scored
// together in one replay pass, and through the first machine alone with
// Rescore. Each input byte is one run: the low bit is the outcome and the
// rest its length (0–127, so runs straddle word boundaries); the empty
// input is the empty stream.
func FuzzRescore(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(5), uint8(3), []byte{})
	f.Add(uint64(2), uint8(3), uint8(2), uint8(1), []byte{0x7f, 0x80})
	f.Add(uint64(3), uint8(7), uint8(8), uint8(6), []byte{0xff, 0x02, 0x41, 0xfe, 0x13})
	f.Add(uint64(4), uint8(15), uint8(10), uint8(9), []byte("periodic 1101001 runs"))
	// Runs of maxLen−1, maxLen and maxLen+1 (maxLen 5) of both outcomes,
	// ending on a short run.
	f.Add(uint64(5), uint8(11), uint8(9), uint8(4), []byte{4<<1 | 1, 5 << 1, 6<<1 | 1, 4 << 1, 5<<1 | 1, 6 << 1, 1<<1 | 1})
	// One event.
	f.Add(uint64(6), uint8(4), uint8(3), uint8(2), []byte{1<<1 | 1})
	f.Fuzz(func(t *testing.T, seed uint64, count, n, maxLen uint8, runs []byte) {
		r := rand.New(rand.NewPCG(seed, 0))
		ml := 1 + int(maxLen)%9
		ms := make([]*LoopMachine, 1+int(count)%16)
		for i := range ms {
			states := randomStates(r, 2+r.IntN(1+int(n)%min(15, 1<<(ml+1)-3)), ml)
			ms[i] = &LoopMachine{States: states, PredTaken: make([]bool, len(states)), Init: r.IntN(2)}
		}
		var st profile.Stream
		for _, b := range runs {
			st.AppendRun(b&1 == 1, uint64(b>>1))
		}
		checkRescore(t, ms[0], &st)
		checkReplay(t, ms, ml, &st)
	})
}
