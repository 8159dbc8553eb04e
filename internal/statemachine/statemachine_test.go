package statemachine

import (
	"testing"
	"testing/quick"

	"repro/internal/profile"
)

// localTable builds a k-bit local pattern table from an outcome string.
func localTable(outcomes string, k int) []profile.Pair {
	h := profile.NewLocalHistory(1, k)
	for _, ch := range outcomes {
		h.RecordBranch(0, ch == '1')
	}
	return h.Table(0)
}

func repeat(s string, n int) string {
	out := make([]byte, 0, len(s)*n)
	for i := 0; i < n; i++ {
		out = append(out, s...)
	}
	return string(out)
}

func TestPatternBasics(t *testing.T) {
	p, err := ParsePattern("011")
	if err != nil {
		t.Fatal(err)
	}
	// oldest-first "011": oldest 0, then 1, then most recent 1.
	if p.Len != 3 || p.Bits != 0b011 {
		t.Fatalf("parsed %v bits=%b", p, p.Bits)
	}
	if p.String() != "011" {
		t.Fatalf("String = %q", p.String())
	}
	one := Pattern{Bits: 1, Len: 1}
	if !one.IsSuffixOf(p) {
		t.Fatal("1 must be a suffix of 011")
	}
	zero := Pattern{Bits: 0, Len: 1}
	if zero.IsSuffixOf(p) {
		t.Fatal("0 must not be a suffix of 011")
	}
	ext := one.Extend(false) // older bit 0 → "01"
	if ext.String() != "01" {
		t.Fatalf("Extend = %v", ext)
	}
	sh := p.Shift(false) // outcome 0 after 011 → "0110"
	if sh.String() != "0110" {
		t.Fatalf("Shift = %v", sh)
	}
	if p.Suffix(2).String() != "11" {
		t.Fatalf("Suffix = %v", p.Suffix(2))
	}
}

func TestParsePatternErrors(t *testing.T) {
	for _, s := range []string{"", "012", "abc"} {
		if _, err := ParsePattern(s); err == nil {
			t.Fatalf("ParsePattern(%q) should fail", s)
		}
	}
}

func TestCountTreeConsistency(t *testing.T) {
	check := func(seed uint32, n uint16) bool {
		h := profile.NewLocalHistory(1, 5)
		x := seed
		for i := 0; i < int(n)+40; i++ {
			x = x*1664525 + 1013904223
			h.RecordBranch(0, x&0x30000 != 0)
		}
		tree := NewCountTree(h.Table(0), 5)
		// Every level must conserve the total.
		want := tree.Total()
		for l := 1; l <= 5; l++ {
			var got uint64
			for b := 0; b < 1<<uint(l); b++ {
				got += tree.Count(Pattern{Bits: uint32(b), Len: uint8(l)}).Total()
			}
			if got != want {
				return false
			}
		}
		// Parent = sum of its two extensions.
		p := Pattern{Bits: 1, Len: 1}
		a := tree.Count(p.Extend(false))
		b := tree.Count(p.Extend(true))
		c := tree.Count(p)
		return c.Taken == a.Taken+b.Taken && c.NotTaken == a.NotTaken+b.NotTaken
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBestLoopMachineAlternating(t *testing.T) {
	// Alternating branch: the 2-state machine {0,1} is already perfect —
	// the paper's Figure 1 example.
	tab := localTable(repeat("10", 500), 9)
	m := BestLoopMachine(tab, 9, 2)
	if m.NumStates() != 2 {
		t.Fatalf("states = %d", m.NumStates())
	}
	if m.Rate() != 0 {
		t.Fatalf("alternating 2-state rate = %.2f%%, want 0", m.Rate())
	}
	// State "0" must predict taken, "1" not-taken.
	i0 := m.StateIndex(Pattern{Bits: 0, Len: 1})
	i1 := m.StateIndex(Pattern{Bits: 1, Len: 1})
	if i0 < 0 || i1 < 0 {
		t.Fatalf("missing catch-all states: %v", m.States)
	}
	if !m.PredTaken[i0] || m.PredTaken[i1] {
		t.Fatalf("predictions wrong: %v", m)
	}
	// Transitions swap the two states.
	if m.Next(i0, true) != i1 || m.Next(i1, false) != i0 {
		t.Fatal("transition function wrong")
	}
}

func TestBestLoopMachinePeriod3(t *testing.T) {
	// Pattern 110 repeating: needs 2 bits of history; a 2-state machine
	// cannot be perfect, a 4-state one can (knows last two outcomes).
	tab := localTable(repeat("110", 400), 9)
	m2 := BestLoopMachine(tab, 9, 2)
	if m2.Rate() == 0 {
		t.Fatalf("2-state machine cannot nail period-3, got %v", m2)
	}
	m4 := BestLoopMachine(tab, 9, 4)
	if m4.Rate() != 0 {
		t.Fatalf("4-state machine on period-3: %v", m4)
	}
	// More states never hurt.
	for n := 2; n <= 6; n++ {
		m := BestLoopMachine(tab, 9, n)
		if n > 2 {
			prev := BestLoopMachine(tab, 9, n-1)
			if m.Hits < prev.Hits {
				t.Fatalf("monotonicity violated at n=%d", n)
			}
		}
	}
}

func TestLoopMachineMatchesFullTableWhenLarge(t *testing.T) {
	// With enough states (here 2^k for small k) the machine hits equal the
	// full pattern table's hits.
	k := 3
	tab := localTable(repeat("1011010", 200), k)
	full := uint64(0)
	var total uint64
	for _, p := range tab {
		full += p.Hits()
		total += p.Total()
	}
	// A machine with every pattern of length ≤ 3 as state: up to
	// 2+4+8 = 14 states; suffix-closure means the 8 longest dominate.
	m := BestLoopMachine(tab, k, 14)
	if m.Hits < full {
		t.Fatalf("machine hits %d < full table hits %d (total %d)", m.Hits, full, total)
	}
}

func TestLoopMachineEmptyTable(t *testing.T) {
	m := BestLoopMachine(nil, 9, 3)
	if m.Total != 0 || m.NumStates() != 3 {
		t.Fatalf("empty table machine: %+v", m)
	}
	// Transition must still be total.
	for i := range m.States {
		m.Next(i, true)
		m.Next(i, false)
	}
}

func TestLoopMachineTransitionInvariant(t *testing.T) {
	// Property: from any state, after feeding the outcomes that spell a
	// state's pattern (oldest first), the machine ends in a state that is
	// a suffix of that pattern sequence.
	tab := localTable(repeat("1100101", 300), 6)
	for n := 2; n <= 8; n++ {
		m := BestLoopMachine(tab, 6, n)
		for i := range m.States {
			for _, d := range []bool{false, true} {
				j := m.Next(i, d)
				// The new state must match the shifted knowledge.
				cand := m.States[i].Shift(d)
				if !m.States[j].IsSuffixOf(cand) {
					t.Fatalf("n=%d: state %v --%v--> %v does not match %v",
						n, m.States[i], d, m.States[j], cand)
				}
			}
		}
		if m.Init < 0 || m.Init >= len(m.States) {
			t.Fatalf("bad init state %d", m.Init)
		}
	}
}

func TestEnumerateSuffixClosedCounts(t *testing.T) {
	// With maxLen=2 and base {0,1}: extensions are 00,10,01,11. Sets of
	// size 3 = choose 1 of 4; size 4 = choose 2 of 4 = 6; all are valid
	// suffix-closed sets (length-2 children of length-1 bases).
	count := func(n int) int {
		c := 0
		base := []Pattern{{Bits: 0, Len: 1}, {Bits: 1, Len: 1}}
		enumerateSuffixClosed(base, n, 2, func(states []Pattern) { c++ })
		return c
	}
	if got := count(2); got != 1 {
		t.Fatalf("n=2: %d sets, want 1", got)
	}
	if got := count(3); got != 4 {
		t.Fatalf("n=3: %d sets, want 4", got)
	}
	if got := count(4); got != 6 {
		t.Fatalf("n=4: %d sets, want 6", got)
	}
}

func TestEnumerateNoDuplicates(t *testing.T) {
	base := []Pattern{{Bits: 0, Len: 1}, {Bits: 1, Len: 1}}
	seen := map[string]bool{}
	enumerateSuffixClosed(base, 5, 4, func(states []Pattern) {
		cp := make([]Pattern, len(states))
		copy(cp, states)
		sortPatterns(cp)
		key := ""
		for _, p := range cp {
			key += p.String() + ","
		}
		if seen[key] {
			t.Fatalf("duplicate set %s", key)
		}
		seen[key] = true
	})
	if len(seen) == 0 {
		t.Fatal("no sets enumerated")
	}
}

func TestExitMachineCountedLoop(t *testing.T) {
	// A loop that always runs exactly 4 iterations: outcomes per loop
	// visit are 1,1,1,0 (taken=stay). Exit machine with 5 states is
	// perfect; the plain profile is 25% wrong.
	outcomes := repeat("1110", 300)
	tab := localTable(outcomes, 9)
	em := NewExitMachine(tab, 9, 5, false /* exit is not-taken */)
	if em.Rate() != 0 {
		t.Fatalf("5-state exit machine on count-4 loop: %.2f%% (%+v)", em.Rate(), em)
	}
	em3 := NewExitMachine(tab, 9, 3, false)
	if em3.Rate() == 0 {
		t.Fatal("3-state machine cannot know iteration 3 from 1")
	}
	if em3.Rate() >= 50 {
		t.Fatalf("3-state rate %.2f%% implausible", em3.Rate())
	}
}

func TestExitMachineTakenExit(t *testing.T) {
	// Same loop but the exit is the taken direction: outcomes 0,0,0,1.
	tab := localTable(repeat("0001", 300), 9)
	em := NewExitMachine(tab, 9, 5, true)
	if em.Rate() != 0 {
		t.Fatalf("taken-exit machine: %.2f%%", em.Rate())
	}
	// Transition: exit (taken) returns to 0; stay saturates at N-1.
	if em.Next(3, true) != 0 {
		t.Fatal("exit must reset")
	}
	if em.Next(3, false) != 4 || em.Next(4, false) != 4 {
		t.Fatal("stay must saturate")
	}
}

func TestExitMachineParity(t *testing.T) {
	// Loop alternates between 2 and 2 iterations... use alternating runs
	// of length 1 and 3 (paper's even/odd note): outcomes 10, 1110
	// repeating. A deep chain separates the run lengths.
	tab := localTable(repeat("101110", 200), 9)
	deep := NewExitMachine(tab, 9, 6, false)
	shallow := NewExitMachine(tab, 9, 2, false)
	if deep.Misses() > shallow.Misses() {
		t.Fatalf("deeper chain worse: %d vs %d", deep.Misses(), shallow.Misses())
	}
}

func TestPathMachinePerfectCorrelation(t *testing.T) {
	// Site 2 copies site 1's outcome. The path machine with 3 states
	// (two 1-long paths + catch-all) predicts perfectly.
	h := profile.NewPathHistory(3, 2)
	t1, t2 := int32(1), int32(2)
	x := uint32(5)
	for i := 0; i < 2000; i++ {
		x = x*1664525 + 1013904223
		o := x&0x100 != 0
		h.RecordBranch(t1, o)
		h.RecordBranch(t2, o)
	}
	m := BestPathMachine(h, 2, 3, 0)
	if m.Rate() != 0 {
		t.Fatalf("correlated path machine: %.2f%% (%v)", m.Rate(), m)
	}
	if m.NumStates() > 3 {
		t.Fatalf("too many states: %d", m.NumStates())
	}
	// Predict must follow the matched path.
	for _, p := range m.Paths {
		idx := m.Match(p)
		if idx < 0 || m.Predict(p) != m.PredTaken[idx] {
			t.Fatal("Match/Predict inconsistent")
		}
	}
}

func TestPathMachineGreedyStopsWhenNoGain(t *testing.T) {
	// A perfectly biased branch: extra path states add nothing, greedy
	// must stop at the catch-all.
	h := profile.NewPathHistory(2, 2)
	t0, t1 := int32(0), int32(1)
	for i := 0; i < 500; i++ {
		h.RecordBranch(t0, i%2 == 0)
		h.RecordBranch(t1, true)
	}
	m := BestPathMachine(h, 1, 5, 0)
	if len(m.Paths) != 0 {
		t.Fatalf("greedy added useless paths: %v", m)
	}
	if m.Rate() != 0 {
		t.Fatalf("biased branch rate = %.2f%%", m.Rate())
	}
}

func TestPathMachineMoreStatesNeverWorse(t *testing.T) {
	h := profile.NewPathHistory(2, 3)
	t0, t1 := int32(0), int32(1)
	x := uint32(77)
	for i := 0; i < 3000; i++ {
		x = x*1664525 + 1013904223
		a := x&0x1000 != 0
		h.RecordBranch(t0, a)
		// t1 depends on t0 xor parity — needs path length ≥ 2 for full
		// accuracy.
		h.RecordBranch(t1, a != (i%2 == 0))
	}
	prev := uint64(0)
	for n := 1; n <= 6; n++ {
		m := BestPathMachine(h, 1, n, 0)
		if m.Hits < prev {
			t.Fatalf("hits decreased at n=%d", n)
		}
		prev = m.Hits
	}
}

func TestScorePathSetPartition(t *testing.T) {
	h := profile.NewPathHistory(2, 2)
	t0, t1 := int32(0), int32(1)
	x := uint32(9)
	for i := 0; i < 1000; i++ {
		x = x*1664525 + 1013904223
		h.RecordBranch(t0, x&2 != 0)
		h.RecordBranch(t1, x&4 != 0)
	}
	full := h.Table(1)
	var want uint64
	for _, p := range full {
		want += p.Total()
	}
	// Any path set must partition all events.
	var somePath profile.PathKey
	for k := range full {
		somePath = k.Suffix(1)
		break
	}
	_, total, _, _ := scorePathSet(full, []profile.PathKey{somePath})
	if total != want {
		t.Fatalf("partition broken: %d != %d", total, want)
	}
}
