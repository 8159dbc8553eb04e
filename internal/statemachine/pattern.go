// Package statemachine implements the paper's central contribution
// (section 4): compact branch prediction state machines derived from
// profiled pattern tables. Three families are provided, matching the
// paper's taxonomy:
//
//   - intra-loop machines: states are local-history patterns forming a
//     suffix-closed set (generalising Figures 2–4), found by an exact
//     dynamic program over the pattern table;
//   - loop-exit machines: iteration-count chains with a saturating top
//     state (Figure 5);
//   - correlated machines: sets of branch paths with a catch-all state,
//     found by greedy search (section 4.3).
//
// Every machine is scored with longest-suffix-match counting ("taking care
// that patterns are counted not more than once"): the events attributed to
// a state p are cnt(p) minus the counts of p's one-bit-older extensions
// that are also states.
package statemachine

import (
	"fmt"
	"strings"

	"repro/internal/profile"
)

// Pattern is a branch-history pattern: Len recent outcomes of one branch,
// bit 0 the most recent, 1 = taken. A pattern "matches" a history whose low
// Len bits equal Bits; longer patterns carry older information.
type Pattern struct {
	Bits uint32
	Len  uint8
}

// Extend returns the pattern with one additional older outcome d.
func (p Pattern) Extend(taken bool) Pattern {
	b := p.Bits
	if taken {
		b |= 1 << p.Len
	}
	return Pattern{Bits: b, Len: p.Len + 1}
}

// Shift returns the pattern observed after outcome d follows history p,
// truncated to knowledge Len+1: the machine-transition candidate.
func (p Pattern) Shift(taken bool) Pattern {
	b := p.Bits << 1
	if taken {
		b |= 1
	}
	return Pattern{Bits: b & ((1 << (p.Len + 1)) - 1), Len: p.Len + 1}
}

// IsSuffixOf reports whether p is a (non-strict) suffix of q: q's most
// recent Len outcomes equal p.
func (p Pattern) IsSuffixOf(q Pattern) bool {
	return p.Len <= q.Len && q.Bits&((1<<p.Len)-1) == p.Bits
}

// Suffix returns p's most recent n outcomes.
func (p Pattern) Suffix(n uint8) Pattern {
	if n >= p.Len {
		return p
	}
	return Pattern{Bits: p.Bits & ((1 << n) - 1), Len: n}
}

// String renders the pattern oldest-first, the way the paper draws state
// labels ("011" = not-taken then taken twice).
func (p Pattern) String() string {
	if p.Len == 0 {
		return "ε"
	}
	var sb strings.Builder
	for i := int(p.Len) - 1; i >= 0; i-- {
		if p.Bits&(1<<uint(i)) != 0 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// ParsePattern parses the String form (oldest-first bit string).
func ParsePattern(s string) (Pattern, error) {
	if len(s) == 0 || len(s) > 32 {
		return Pattern{}, fmt.Errorf("statemachine: bad pattern %q", s)
	}
	var p Pattern
	p.Len = uint8(len(s))
	for i, ch := range s {
		switch ch {
		case '1':
			p.Bits |= 1 << uint(len(s)-1-i)
		case '0':
		default:
			return Pattern{}, fmt.Errorf("statemachine: bad pattern %q", s)
		}
	}
	return p, nil
}

// CountTree holds cnt(p) for every pattern length 1..K, folded down from a
// site's K-bit pattern table. cnt(p) is the (taken, not-taken) pair summed
// over all K-bit histories that p matches.
type CountTree struct {
	K int
	// levels[l-1][bits] is cnt of the length-l pattern with those bits.
	levels [][]profile.Pair
}

// NewCountTree folds a K-bit pattern table (len 1<<k, may be nil) into
// per-length counts.
func NewCountTree(tab []profile.Pair, k int) *CountTree {
	t := &CountTree{K: k, levels: make([][]profile.Pair, k)}
	top := make([]profile.Pair, 1<<uint(k))
	copy(top, tab)
	t.levels[k-1] = top
	for l := k - 1; l >= 1; l-- {
		cur := make([]profile.Pair, 1<<uint(l))
		above := t.levels[l]
		for b, p := range above {
			cur[b&((1<<uint(l))-1)].Merge(p)
		}
		t.levels[l-1] = cur
	}
	return t
}

// Count returns cnt(p). Patterns longer than K have no information and
// panic: the caller must cap machine depth at the profile's history length.
func (t *CountTree) Count(p Pattern) profile.Pair {
	if p.Len == 0 {
		// ε matches everything.
		var total profile.Pair
		for _, q := range t.levels[0] {
			total.Merge(q)
		}
		return total
	}
	if int(p.Len) > t.K {
		panic(fmt.Sprintf("statemachine: pattern %v longer than profile history %d", p, t.K))
	}
	return t.levels[p.Len-1][p.Bits]
}

// Total is the number of profiled events in the tree.
func (t *CountTree) Total() uint64 {
	var n uint64
	for _, p := range t.levels[0] {
		n += p.Total()
	}
	return n
}
