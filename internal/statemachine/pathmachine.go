package statemachine

import (
	"fmt"
	"sort"

	"repro/internal/profile"
)

// PathMachine is a correlated-branch state machine (section 4.3): its
// states are paths of preceding branches leading to the predicted branch,
// plus one catch-all state for control flow matching none of the chosen
// paths. Prediction uses longest-suffix matching over the path, mirroring
// the tail-duplication the replicator performs.
type PathMachine struct {
	// Paths are the chosen path states, longest-match semantics, sorted
	// by descending length then key for determinism.
	Paths []profile.PathKey
	// PredTaken[i] is the majority direction under path i.
	PredTaken []bool
	// CatchPred is the prediction of the catch-all state.
	CatchPred bool
	// StatePairs[i] holds the outcome counts attributed to path i, and
	// CatchPair those of the catch-all; the replicator folds the counts of
	// unroutable states back into the catch-all to re-derive its
	// prediction.
	StatePairs []profile.Pair
	CatchPair  profile.Pair
	// Hits and Total score the machine.
	Hits, Total uint64
}

// NumStates counts the paths plus the catch-all.
func (m *PathMachine) NumStates() int { return len(m.Paths) + 1 }

// Misses is the mispredicted event count.
func (m *PathMachine) Misses() uint64 { return m.Total - m.Hits }

// Rate is the misprediction rate in percent.
func (m *PathMachine) Rate() float64 {
	if m.Total == 0 {
		return 0
	}
	return 100 * float64(m.Misses()) / float64(m.Total)
}

// Match returns the index of the longest chosen path that is a suffix of
// key, or -1 for the catch-all.
func (m *PathMachine) Match(key profile.PathKey) int {
	best, bestLen := -1, -1
	for i, p := range m.Paths {
		l := p.Len()
		if l > bestLen && key.Suffix(l) == p {
			best, bestLen = i, l
		}
	}
	return best
}

// Predict returns the machine's prediction for an occurrence with the
// given path key.
func (m *PathMachine) Predict(key profile.PathKey) bool {
	if i := m.Match(key); i >= 0 {
		return m.PredTaken[i]
	}
	return m.CatchPred
}

func (m *PathMachine) String() string {
	s := fmt.Sprintf("path machine %d states rate=%.2f%%:", m.NumStates(), m.Rate())
	for i, p := range m.Paths {
		d := "N"
		if m.PredTaken[i] {
			d = "T"
		}
		s += fmt.Sprintf(" %v→%s", p, d)
	}
	d := "N"
	if m.CatchPred {
		d = "T"
	}
	return s + " *→" + d
}

// BestPathMachine builds an n-state correlated machine for one branch site
// by greedy search with exact incremental rescoring: starting from the lone
// catch-all, repeatedly add the candidate path (any suffix length up to the
// profile's maximum and at most maxPathLen) that increases correct
// predictions the most. The paper caps the path length at the state count
// to keep replication small; pass maxPathLen ≤ 0 to use the profile's
// maximum.
//
// Greedy is our stand-in for the paper's unspecified "set of those paths
// which give the lowest misprediction" search; gains are computed exactly
// under longest-suffix-match semantics via a candidate→keys index, so each
// round costs O(total index size).
func BestPathMachine(h *profile.PathHistory, site int32, n, maxPathLen int) *PathMachine {
	if n < 1 {
		panic("statemachine: path machine needs >= 1 state")
	}
	if n > 16 {
		n = 16 // bounded by the fixed-size per-state accumulators below
	}
	maxLen := h.M
	if maxPathLen > 0 && maxPathLen < maxLen {
		maxLen = maxPathLen
	}
	// The site's table, sorted by key; candKeys[c] lists the keys having
	// candidate path c as a suffix.
	keys, pairs := h.Table(site)
	candKeys := make(map[profile.PathKey][]int32)
	for i, k := range keys {
		kl := k.Len()
		for l := 1; l <= maxLen && l <= kl; l++ {
			s := k.Suffix(l)
			candKeys[s] = append(candKeys[s], int32(i))
		}
	}
	cands := make([]profile.PathKey, 0, len(candKeys))
	for c := range candKeys {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a] < cands[b] })

	// Greedy state: per-key current match length (0 = catch-all) and
	// per-state effective pairs. State index 0 is the catch-all.
	curLen := make([]int, len(keys))
	assign := make([]int, len(keys)) // state index; 0 = catch-all
	eff := []profile.Pair{{}}        // eff[0] = catch-all
	chosen := []profile.PathKey{}
	for i := range pairs {
		eff[0].Merge(pairs[i])
	}
	hitsOf := func(p profile.Pair) uint64 { return p.Hits() }
	totalHits := hitsOf(eff[0])

	taken := make(map[profile.PathKey]bool)
	for len(chosen)+1 < n {
		var bestCand profile.PathKey
		bestGain := int64(0)
		found := false
		for _, c := range cands {
			if taken[c] {
				continue
			}
			cl := c.Len()
			// Compute the exact hit delta of adding c.
			var movedFrom [16]profile.Pair // per affected state (≤ n states)
			var movedAny [16]bool
			var movedTotal profile.Pair
			for _, ki := range candKeys[c] {
				if curLen[ki] >= cl {
					continue
				}
				s := assign[ki]
				movedFrom[s].Merge(pairs[ki])
				movedAny[s] = true
				movedTotal.Merge(pairs[ki])
			}
			if movedTotal.Total() == 0 {
				continue
			}
			delta := int64(hitsOf(movedTotal))
			for s := range movedAny {
				if !movedAny[s] {
					continue
				}
				before := eff[s]
				after := profile.Pair{
					Taken:    before.Taken - movedFrom[s].Taken,
					NotTaken: before.NotTaken - movedFrom[s].NotTaken,
				}
				delta += int64(hitsOf(after)) - int64(hitsOf(before))
			}
			if delta > bestGain {
				bestGain = delta
				bestCand = c
				found = true
			}
		}
		if !found {
			break // no candidate helps; fewer states suffice
		}
		// Apply the winner.
		taken[bestCand] = true
		chosen = append(chosen, bestCand)
		sidx := len(eff)
		eff = append(eff, profile.Pair{})
		cl := bestCand.Len()
		for _, ki := range candKeys[bestCand] {
			if curLen[ki] >= cl {
				continue
			}
			s := assign[ki]
			eff[s].Taken -= pairs[ki].Taken
			eff[s].NotTaken -= pairs[ki].NotTaken
			eff[sidx].Merge(pairs[ki])
			assign[ki] = sidx
			curLen[ki] = cl
		}
		totalHits = 0
		for _, e := range eff {
			totalHits += hitsOf(e)
		}
	}

	// Assemble the machine: longest paths first for deterministic
	// longest-match iteration.
	type st struct {
		key  profile.PathKey
		pair profile.Pair
	}
	sts := make([]st, len(chosen))
	for i, c := range chosen {
		sts[i] = st{key: c, pair: eff[i+1]}
	}
	sort.Slice(sts, func(a, b int) bool {
		if sts[a].key.Len() != sts[b].key.Len() {
			return sts[a].key.Len() > sts[b].key.Len()
		}
		return sts[a].key < sts[b].key
	})
	m := &PathMachine{CatchPred: eff[0].MajorityTaken(), CatchPair: eff[0], Hits: totalHits}
	for _, s := range sts {
		m.Paths = append(m.Paths, s.key)
		m.PredTaken = append(m.PredTaken, s.pair.MajorityTaken())
		m.StatePairs = append(m.StatePairs, s.pair)
	}
	for _, p := range pairs {
		m.Total += p.Total()
	}
	return m
}
