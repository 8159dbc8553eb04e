package profile

import "repro/internal/trace"

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
