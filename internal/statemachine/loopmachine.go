package statemachine

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/profile"
)

// LoopMachine is an intra-loop branch prediction state machine: each state
// is a local-history pattern, the state set is complete (every history
// matches some state), and the transition on an outcome moves to the
// longest state matching the new (truncated) history. Replicated code
// realises one loop copy per state (Figure 1).
type LoopMachine struct {
	// States is sorted by (Len, Bits); the set is suffix-closed over its
	// base (either the two 1-bit catch-alls or the four 2-bit ones).
	States []Pattern
	// PredTaken[i] is state i's majority direction.
	PredTaken []bool
	// Init is the initial state index (the heaviest base state).
	Init int
	// Hits and Total score the machine against the profiled counts.
	Hits, Total uint64
}

// NumStates returns the machine size.
func (m *LoopMachine) NumStates() int { return len(m.States) }

// Rate is the misprediction rate in percent.
func (m *LoopMachine) Rate() float64 {
	if m.Total == 0 {
		return 0
	}
	return 100 * float64(m.Total-m.Hits) / float64(m.Total)
}

// Misses is the mispredicted event count.
func (m *LoopMachine) Misses() uint64 { return m.Total - m.Hits }

// StateIndex returns the index of pattern p, or -1.
func (m *LoopMachine) StateIndex(p Pattern) int {
	for i, q := range m.States {
		if q == p {
			return i
		}
	}
	return -1
}

// Next is the transition function: from state i with the given outcome,
// move to the longest state matching the new truncated history. The state
// set's completeness guarantees a match.
func (m *LoopMachine) Next(i int, taken bool) int {
	j, ok := m.NextIndex(i, taken)
	if !ok {
		panic(fmt.Sprintf("statemachine: incomplete state set %v lacks match for %v", m.States, m.States[i].Shift(taken)))
	}
	return j
}

// NextIndex is the non-panicking transition function: it reports false when
// the state set is incomplete (no state matches the shifted history), which
// well-formedness analyses diagnose instead of crashing.
func (m *LoopMachine) NextIndex(i int, taken bool) (int, bool) {
	cand := m.States[i].Shift(taken)
	best := -1
	var bestLen uint8
	for j, q := range m.States {
		if q.Len <= cand.Len && q.IsSuffixOf(cand) {
			if best == -1 || q.Len > bestLen {
				best, bestLen = j, q.Len
			}
		}
	}
	if best == -1 {
		return -1, false
	}
	return best, true
}

func (m *LoopMachine) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "loop machine %d states:", len(m.States))
	for i, s := range m.States {
		d := "N"
		if m.PredTaken[i] {
			d = "T"
		}
		fmt.Fprintf(&sb, " %v→%s", s, d)
		if i == m.Init {
			sb.WriteString("*")
		}
	}
	return sb.String()
}

// scoreStates computes longest-match hits for a complete pattern set:
// eff(p) = cnt(p) − cnt(p extended by 0, if a state) − cnt(p extended by 1,
// if a state); hits = Σ max(effTaken, effNotTaken). It also returns the
// per-state majority directions.
func scoreStates(t *CountTree, states []Pattern) (hits, total uint64, preds []bool) {
	inSet := func(q Pattern) bool {
		for _, s := range states {
			if s == q {
				return true
			}
		}
		return false
	}
	preds = make([]bool, len(states))
	for i, p := range states {
		eff := t.Count(p)
		for _, d := range [2]bool{false, true} {
			ext := p.Extend(d)
			if int(ext.Len) <= t.K && inSet(ext) {
				c := t.Count(ext)
				eff.Taken -= c.Taken
				eff.NotTaken -= c.NotTaken
			}
		}
		preds[i] = eff.MajorityTaken()
		hits += eff.Hits()
		total += eff.Total()
	}
	return hits, total, preds
}

// scoreStatesFast computes only the hit count, allocation-free; the exact
// search's inner loop uses it before materialising full machines for the
// leaders.
func scoreStatesFast(t *CountTree, states []Pattern) (hits uint64) {
	inSet := func(q Pattern) bool {
		for _, s := range states {
			if s == q {
				return true
			}
		}
		return false
	}
	for _, p := range states {
		eff := t.Count(p)
		for _, d := range [2]bool{false, true} {
			ext := p.Extend(d)
			if int(ext.Len) <= t.K && inSet(ext) {
				c := t.Count(ext)
				eff.Taken -= c.Taken
				eff.NotTaken -= c.NotTaken
			}
		}
		hits += eff.Hits()
	}
	return hits
}

// The two bases every loop machine grows from, both drawn in the paper: the
// two 1-bit catch-all states (Figure 2) and the four 2-bit ones (Figure 3).
var (
	base1 = []Pattern{{Bits: 0, Len: 1}, {Bits: 1, Len: 1}}
	base2 = []Pattern{
		{Bits: 0, Len: 2}, {Bits: 1, Len: 2},
		{Bits: 2, Len: 2}, {Bits: 3, Len: 2},
	}
)

// searchBounds validates a loop-machine request and returns the state
// count clamped to the complete suffix tree over k-bit histories
// (2^(k+1)−2 states, the largest suffix-closed set there is) and the
// longest pattern the machine may use, min(n−1, k).
func searchBounds(k, n int) (states, maxLen int) {
	if n < 2 {
		panic(fmt.Sprintf("statemachine: loop machine needs >= 2 states, got %d", n))
	}
	if k < 1 {
		panic("statemachine: history length must be >= 1")
	}
	n = min(n, 1<<(k+1)-2)
	return n, min(n-1, k)
}

// BestLoopMachine finds the machine of n states (fewer only when n exceeds
// the complete 2^(k+1)−2-state tree) with the most correct predictions for
// one branch under the paper's longest-match counting, given its k-bit
// pattern table (tab may be nil for a never-profiled branch, in which case
// the machine degenerates to catch-all states with zero counts). Machines
// grow from base1 or, when n ≥ 4, from base2 by suffix-closed extension up
// to history length min(n−1, k).
//
// The search is an exact dynamic program over the count tree (loopDP): it
// scores as well as the best of every suffix-closed set. Among sets that
// score equally it prefers base1 over base2 and then, at every state, the
// split that puts fewer states under the not-taken extension.
//
// n must be at least 2. A 2-state machine is exactly the 1-bit history
// scheme.
func BestLoopMachine(tab []profile.Pair, k, n int) *LoopMachine {
	return bestLoopMachine(NewCountTree(tab, k), n)
}

// bestLoopMachine is BestLoopMachine over the site's count tree.
func bestLoopMachine(t *CountTree, n int) *LoopMachine {
	n, maxLen := searchBounds(t.K, n)
	d := newLoopDP(t, n, maxLen)
	// base1 always fits: searchBounds clamps n to its complete tree.
	hits, sizes, _ := d.split(base1, n)
	roots := base1
	if n >= 4 && maxLen >= 2 {
		if h2, s2, ok := d.split(base2, n); ok && h2 > hits {
			roots, sizes = base2, s2
		}
	}
	states := make([]Pattern, 0, n)
	for i, r := range roots {
		states = d.grow(states, r, sizes[i])
	}
	sortPatterns(states)
	h, tot, preds := scoreStates(t, states)
	return &LoopMachine{States: states, PredTaken: preds, Init: initialState(t, states), Hits: h, Total: tot}
}

// loopDP is the search behind BestLoopMachine. Longest-match counting
// splits over a suffix-closed set: state p keeps the events of cnt(p) that
// none of its children (its one-bit-older extensions c0, c1) claims as a
// state, so p's score depends only on which children are states. Hence
// the best score f(p, m) of an m-state suffix-closed subtree rooted at p is
//
//	f(p, 1) = Hits(cnt p)
//	f(p, m) = max over m0 + m1 = m−1 of f(c0, m0) + f(c1, m1) + Hits(eff p)
//
// with f(c, 0) = 0 for a child that is not a state, and eff p = cnt c1 when
// only c0 is a state, cnt c0 when only c1 is, and nothing when both are
// (cnt p = cnt c0 + cnt c1 below the profile's history length). The table
// holds f for every pattern up to maxLen, filled bottom up in
// O(Σ_l 2^l·(n−l)²) steps, about 6k for n = 10 and k = 9. Patterns with no
// profiled events score 0 at every size and are skipped.
type loopDP struct {
	t *CountTree
	// width[l] is the largest size a subtree rooted at length l can take:
	// the complete subtree of 2^(maxLen−l+1)−1 states, or n−l, since the
	// root's l−1 ancestors and at least one other base state lie outside.
	width []int
	// f[l][bits*width[l]+m−1] is f(p, m) for the length-l pattern p.
	f [][]uint64
}

func newLoopDP(t *CountTree, n, maxLen int) *loopDP {
	d := &loopDP{t: t, width: make([]int, maxLen+1), f: make([][]uint64, maxLen+1)}
	cells := 0
	for l := 1; l <= maxLen; l++ {
		d.width[l] = min(n-l, 1<<(maxLen-l+1)-1)
		cells += d.width[l] << l
	}
	flat := make([]uint64, cells)
	for l := maxLen; l >= 1; l-- {
		w := d.width[l]
		d.f[l], flat = flat[:w<<l], flat[w<<l:]
		for b := range 1 << l {
			p := Pattern{Bits: uint32(b), Len: uint8(l)}
			if t.Count(p).Total() == 0 {
				continue
			}
			for m := 1; m <= w; m++ {
				d.f[l][b*w+m-1], _ = d.best(p, m)
			}
		}
	}
	return d
}

// at returns f(p, m), with f(p, 0) = 0 for an absent subtree.
func (d *loopDP) at(p Pattern, m int) uint64 {
	if m == 0 {
		return 0
	}
	return d.f[p.Len][int(p.Bits)*d.width[p.Len]+m-1]
}

// best evaluates f(p, m) from the children's entries and returns it with
// the number of states m0 it places under c0 (the other m−1−m0 go under
// c1). Splits are tried with m0 ascending and only a strictly better one
// replaces the incumbent, so ties keep the smallest m0.
func (d *loopDP) best(p Pattern, m int) (hits uint64, m0 int) {
	if m == 1 {
		return d.t.Count(p).Hits(), 0
	}
	c0, c1 := p.Extend(false), p.Extend(true)
	w := d.width[c0.Len]
	m0 = -1
	for k0 := max(0, m-1-w); k0 <= min(m-1, w); k0++ {
		k1 := m - 1 - k0
		h := d.at(c0, k0) + d.at(c1, k1)
		switch {
		case k0 == 0:
			h += d.t.Count(c0).Hits()
		case k1 == 0:
			h += d.t.Count(c1).Hits()
		}
		if m0 < 0 || h > hits {
			hits, m0 = h, k0
		}
	}
	return hits, m0
}

// split distributes n states over the base roots, at least one each, to
// maximise Σ f(root, size); ok is false when no distribution fits. Ties
// keep the distribution that gives earlier roots fewer states.
func (d *loopDP) split(roots []Pattern, n int) (hits uint64, sizes []int, ok bool) {
	w := d.width[roots[0].Len]
	r := len(roots)
	// g[i][m] is the best score of roots[i:] with m states in all; feasible
	// marks the m that some distribution reaches.
	g := make([][]uint64, r+1)
	feasible := make([][]bool, r+1)
	for i := range g {
		g[i] = make([]uint64, n+1)
		feasible[i] = make([]bool, n+1)
	}
	feasible[r][0] = true
	// pick returns the best size for roots[i] when roots[i:] share m states,
	// or 0 when none fits.
	pick := func(i, m int) (best uint64, size int) {
		for k := 1; k <= min(w, m); k++ {
			if !feasible[i+1][m-k] {
				continue
			}
			if h := d.at(roots[i], k) + g[i+1][m-k]; size == 0 || h > best {
				best, size = h, k
			}
		}
		return best, size
	}
	for i := r - 1; i >= 0; i-- {
		for m := 1; m <= n; m++ {
			if h, k := pick(i, m); k > 0 {
				g[i][m], feasible[i][m] = h, true
			}
		}
	}
	if !feasible[0][n] {
		return 0, nil, false
	}
	sizes = make([]int, r)
	for i, m := 0, n; i < r; i++ {
		_, sizes[i] = pick(i, m)
		m -= sizes[i]
	}
	return g[0][n], sizes, true
}

// grow appends the best m-state subtree rooted at p, replaying best's
// choices.
func (d *loopDP) grow(states []Pattern, p Pattern, m int) []Pattern {
	states = append(states, p)
	if m == 1 {
		return states
	}
	_, m0 := d.best(p, m)
	if m0 > 0 {
		states = d.grow(states, p.Extend(false), m0)
	}
	if m1 := m - 1 - m0; m1 > 0 {
		states = d.grow(states, p.Extend(true), m1)
	}
	return states
}

// delta builds the dense transition table of the machine.
func (m *LoopMachine) delta() [][2]int {
	d := make([][2]int, len(m.States))
	for i := range m.States {
		d[i][0] = m.Next(i, false)
		d[i][1] = m.Next(i, true)
	}
	return d
}

// Rescore replays the branch's full outcome stream through the machine
// with exact automaton semantics, recomputing the per-state majority
// predictions, Hits, and Total from what the machine really sees. This is
// stricter than the longest-match table counting: a replicated machine only
// knows as much history as its current state label, so it can idle in a
// short state while a longer pattern matches the true history. The paper's
// counting ignores that effect; measured results come from Rescore.
//
// Rescore is the one-machine case of the exact search's shared replay,
// with runs capped at the machine's longest pattern.
func (m *LoopMachine) Rescore(st *profile.Stream) {
	maxLen := 0
	for _, p := range m.States {
		maxLen = max(maxLen, int(p.Len))
	}
	var r replay
	r.load(st, maxLen)
	r.score([]*LoopMachine{m})
}

// BestLoopMachineExact searches the same state sets as BestLoopMachine but
// scores the top candidates by exact stream replay and returns the machine
// that is actually best when realised as replicated code. It enumerates
// every suffix-closed set, ranks them by the table-based score, and replays
// the topK (here 12) and the canonical chains together in one pass over
// the stream.
func BestLoopMachineExact(tab []profile.Pair, k, n int, st *profile.Stream) *LoopMachine {
	var r replay
	return r.bestLoop(NewCountTree(tab, k), n, st)
}

// bestLoop is BestLoopMachineExact over the site's count tree, replaying
// with r's buffers. The first candidate with the most hits wins.
func (r *replay) bestLoop(t *CountTree, n int, st *profile.Stream) *LoopMachine {
	if st == nil || st.Len() == 0 {
		return bestLoopMachine(t, n)
	}
	_, maxLen := searchBounds(t.K, n)
	cands := exactCandidates(t, n)
	r.load(st, maxLen)
	r.score(cands)
	best := cands[0]
	for _, m := range cands[1:] {
		if m.Hits > best.Hits {
			best = m
		}
	}
	return best
}

// exactCandidates returns the machines BestLoopMachineExact replays, in
// replay order: the topK suffix-closed sets by table score, then the
// canonical chains that are not among them. Their PredTaken are left for
// the replay to set.
func exactCandidates(t *CountTree, n int) []*LoopMachine {
	n, maxLen := searchBounds(t.K, n)
	const topK = 12
	type cand struct {
		hits   uint64
		states []Pattern
	}
	var top []cand
	consider := func(states []Pattern) {
		hits := scoreStatesFast(t, states)
		if len(top) == topK && hits <= top[topK-1].hits {
			return
		}
		cp := make([]Pattern, len(states))
		copy(cp, states)
		sortPatterns(cp)
		c := cand{hits: hits, states: cp}
		pos := len(top)
		for pos > 0 && top[pos-1].hits < hits {
			pos--
		}
		top = append(top, cand{})
		copy(top[pos+1:], top[pos:])
		top[pos] = c
		if len(top) > topK {
			top = top[:topK]
		}
	}
	enumerateSuffixClosed(base1, n, maxLen, consider)
	if n >= 4 && maxLen >= 2 {
		enumerateSuffixClosed(base2, n, maxLen, consider)
	}
	out := make([]*LoopMachine, 0, len(top)+3)
	add := func(states []Pattern) {
		for _, m := range out {
			if slices.Equal(m.States, states) {
				return
			}
		}
		out = append(out, &LoopMachine{States: states, PredTaken: make([]bool, n), Init: initialState(t, states)})
	}
	for _, c := range top {
		add(c.states)
	}
	// The table score is an optimistic proxy; the realizable optimum is
	// often a chain machine (Figures 2 and 5) that the proxy under-ranks,
	// so the canonical chains are always replayed too.
	for _, states := range canonicalSets(n, maxLen) {
		add(states)
	}
	return out
}

// canonicalSets returns replay-friendly standard state sets of exactly n
// states: the run-length chains of both polarities (the paper's Figure 2
// and Figure 5 shapes) and, when n allows, the complete suffix tree over
// two levels.
func canonicalSets(n, maxLen int) [][]Pattern {
	var out [][]Pattern
	// Run chains: {0,1,01,011,...} — each longer state remembers one more
	// trailing "stay" outcome. Build both polarities.
	for _, stay := range []uint32{1, 0} {
		states := []Pattern{{Bits: 0, Len: 1}, {Bits: 1, Len: 1}}
		// pattern: (1-stay) followed by k stays, oldest first:
		// bits low k = stay value, bit k = 1-stay.
		for k := 1; len(states) < n && k < maxLen; k++ {
			var p Pattern
			p.Len = uint8(k + 1)
			for b := 0; b < k; b++ {
				p.Bits |= stay << uint(b)
			}
			p.Bits |= (1 - stay) << uint(k)
			states = append(states, p)
		}
		if len(states) == n {
			cp := make([]Pattern, n)
			copy(cp, states)
			sortPatterns(cp)
			out = append(out, cp)
		}
	}
	// Complete two-level tree {0,1,00,01,10,11} when it fits exactly.
	if n == 6 && maxLen >= 2 {
		out = append(out, []Pattern{
			{Bits: 0, Len: 1}, {Bits: 1, Len: 1},
			{Bits: 0, Len: 2}, {Bits: 1, Len: 2},
			{Bits: 2, Len: 2}, {Bits: 3, Len: 2},
		})
	}
	return out
}

// initialState picks the heaviest base (shortest-length) state as the
// entry state of the machine.
func initialState(t *CountTree, states []Pattern) int {
	baseLen := states[0].Len
	for _, p := range states {
		if p.Len < baseLen {
			baseLen = p.Len
		}
	}
	best, bestCnt := -1, uint64(0)
	for i, p := range states {
		if p.Len != baseLen {
			continue
		}
		c := t.Count(p).Total()
		if best == -1 || c > bestCnt {
			best, bestCnt = i, c
		}
	}
	return best
}

func sortPatterns(ps []Pattern) {
	slices.SortFunc(ps, func(a, b Pattern) int {
		if a.Len != b.Len {
			return cmp.Compare(a.Len, b.Len)
		}
		return cmp.Compare(a.Bits, b.Bits)
	})
}

// enumerateSuffixClosed enumerates every suffix-closed superset of base
// with exactly n states and patterns no longer than maxLen, invoking
// consider on each. Each set is produced exactly once via ordered frontier
// expansion. The frontiers share one stack: a level's frontier holds at
// most two patterns more than its parent's, so n+1 levels of
// 2·len(base)+n patterns never outgrow it.
func enumerateSuffixClosed(base []Pattern, n, maxLen int, consider func([]Pattern)) {
	if len(base) > n {
		return
	}
	set := make([]Pattern, len(base), n)
	copy(set, base)
	stack := make([]Pattern, 0, (n+1)*(2*len(base)+n))
	for _, p := range base {
		if int(p.Len) < maxLen {
			stack = append(stack, p.Extend(false), p.Extend(true))
		}
	}
	var rec func(frontier []Pattern, remaining int)
	rec = func(frontier []Pattern, remaining int) {
		if remaining == 0 {
			consider(set)
			return
		}
		top := len(stack)
		for i, cand := range frontier {
			set = append(set, cand)
			stack = append(stack[:top], frontier[i+1:]...)
			if int(cand.Len) < maxLen {
				stack = append(stack, cand.Extend(false), cand.Extend(true))
			}
			rec(stack[top:], remaining-1)
			set = set[:len(set)-1]
		}
		stack = stack[:top]
	}
	rec(stack, n-len(base))
}
