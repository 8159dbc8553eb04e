package profile

import (
	"math/bits"

	"repro/internal/trace"
)

// Stream is a packed per-branch outcome sequence (1 = taken). The
// state-machine search replays streams to score candidate machines with
// exact automaton semantics, instead of the paper's slightly optimistic
// longest-match counting (see DESIGN.md).
type Stream struct {
	words []uint64
	n     int
}

// Append records one outcome.
func (s *Stream) Append(taken bool) {
	w := s.n >> 6
	if w == len(s.words) {
		s.words = append(s.words, 0)
	}
	if taken {
		s.words[w] |= 1 << uint(s.n&63)
	}
	s.n++
}

// Len is the number of recorded outcomes.
func (s *Stream) Len() int { return s.n }

// Get returns outcome i.
func (s *Stream) Get(i int) bool {
	return s.words[i>>6]&(1<<uint(i&63)) != 0
}

// Runs calls fn once per maximal run of equal outcomes, in stream order,
// with the run's outcome and length. It scans the packed words a run at a
// time (one TrailingZeros64 per word the run touches), so a consumer whose
// state stops changing within a run can fold the rest of it in closed form.
func (s *Stream) Runs(fn func(taken bool, n int)) {
	for i := 0; i < s.n; {
		start := i
		taken := s.Get(i)
		for i < s.n {
			w := s.words[i>>6] >> uint(i&63)
			if taken {
				w = ^w
			}
			// w's low zero bits are the outcomes that continue the run;
			// the shift leaves at most 64−i%64 of them meaningful.
			z, avail := bits.TrailingZeros64(w), 64-i&63
			if z < avail {
				i += z
				break
			}
			i += avail
		}
		i = min(i, s.n)
		fn(taken, i-start)
	}
}

// Streams collects one outcome stream per branch site.
type Streams struct {
	sites []Stream
	total uint64
}

var _ trace.Collector = (*Streams)(nil)

// NewStreams sizes the collector for nSites branch sites.
func NewStreams(nSites int) *Streams {
	return &Streams{sites: make([]Stream, nSites)}
}

// RecordBranch implements trace.Collector.
func (c *Streams) RecordBranch(site int32, taken bool) {
	c.sites[site].Append(taken)
	c.total++
}

// Site returns the stream of one branch site.
func (c *Streams) Site(s int32) *Stream { return &c.sites[s] }

// NumSites is the number of branch sites.
func (c *Streams) NumSites() int { return len(c.sites) }

// Total is the number of recorded events.
func (c *Streams) Total() uint64 { return c.total }
