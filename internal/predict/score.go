package predict

import (
	"slices"

	"repro/internal/ir"
	"repro/internal/trace"
)

// StaticScore folds a fixed per-site prediction vector over a branch
// stream: the replay equivalent of annotating a program clone and
// measuring it live, since annotation only sets Term.Pred and leaves the
// branch stream untouched. Sites beyond the vector and sites predicted
// PredNone are ignored.
type StaticScore struct {
	Preds []ir.Prediction
	// Predicted counts events whose site carries a prediction;
	// Mispredicted those where the prediction missed.
	Predicted    uint64
	Mispredicted uint64
}

var _ trace.Collector = (*StaticScore)(nil)

// RecordBranch implements trace.Collector.
func (s *StaticScore) RecordBranch(site int32, taken bool) { s.RecordRun(site, taken, 1) }

// RecordRun implements trace.Collector.
func (s *StaticScore) RecordRun(site int32, taken bool, n uint64) {
	if int(site) >= len(s.Preds) {
		return
	}
	p := s.Preds[site]
	if p == ir.PredNone {
		return
	}
	s.Predicted += n
	if (p == ir.PredTaken) != taken {
		s.Mispredicted += n
	}
}

// ScoreKind names a strategy Scorer can score.
type ScoreKind uint8

const (
	// ScoreProfile is the profile (majority) oracle over trace.Counts.
	ScoreProfile ScoreKind = iota
	// ScoreLast is Eval over LastDirection.
	ScoreLast
	// ScoreTwoBit is Eval over TwoBit.
	ScoreTwoBit
	// ScoreStatic is StaticScore over a fixed prediction vector.
	ScoreStatic
)

// Scorer scores one strategy over a trace whose site range is learned
// while it is read: kralld's /v1/score, which folds an upload inside its
// validating pass (trace.Adopt) and a stored slab through Slab.Steps. Fold
// pulls the trace a batch of steps at a time and folds each batch in one
// loop for the scorer's kind, over the tables of the strategy it stands in
// for: the profile's trace.Counts, last direction's per-site outcome,
// TwoBit's counters through a branch-free table, and StaticScore. It so
// makes no dynamic call per event, and its verdict is theirs (pinned by
// TestScorerMatchesCollectors). The per-site tables grow when a batch
// names a site first, and Reset only truncates them, so a pooled Scorer
// does no work proportional to a site cap, only to the sites a trace
// names.
type Scorer struct {
	kind ScoreKind
	// sites is the site bound over every event folded so far; the kind's
	// table covers it.
	sites  int
	counts trace.Counts
	last   []bool
	ctr    []uint8
	static StaticScore
	// misses and total accumulate the last and twobit verdicts.
	misses, total uint64
	batch         [trace.BatchSize]trace.Step
}

// Reset readies the scorer for a new trace under kind; preds is the
// prediction vector ScoreStatic scores (sites beyond it count as PredNone)
// and is otherwise ignored.
func (s *Scorer) Reset(kind ScoreKind, preds []ir.Prediction) {
	s.kind, s.sites, s.misses, s.total = kind, 0, 0, 0
	s.counts.Taken, s.counts.NotTaken = s.counts.Taken[:0], s.counts.NotTaken[:0]
	s.last, s.ctr = s.last[:0], s.ctr[:0]
	s.static = StaticScore{Preds: preds}
}

// Sites is the site bound of the trace so far: max(site)+1 over every
// event folded, switch events included, 0 before any event — what
// trace.MaxSite would report.
func (s *Scorer) Sites() int { return s.sites }

// Result returns the misprediction count and the number of events scored.
func (s *Scorer) Result() (misses, total uint64) {
	switch s.kind {
	case ScoreProfile:
		r := ProfileResult(&s.counts)
		return r.Misses, r.Total
	case ScoreStatic:
		return s.static.Mispredicted, s.static.Predicted
	}
	return s.misses, s.total
}

// Fold scores every step r has left, a batch at a time, in one loop per
// kind. A loop stops at a rare step — a switch event, or a site past the
// kind's table — which Fold handles before the loop takes up the rest of
// the batch; so the loop calls nothing, keeps its state in registers, and
// its one test for a rare step also spares it the table's bounds check.
// No strategy scores switch events, but their sites share the dense site
// space and so raise the site bound.
func (s *Scorer) Fold(r *trace.Steps) {
	for b := r.Next(s.batch[:]); len(b) > 0; b = r.Next(s.batch[:]) {
		for len(b) > 0 {
			var k int
			switch s.kind {
			case ScoreProfile:
				k = s.foldProfile(b)
			case ScoreLast:
				k = s.foldLast(b)
			case ScoreTwoBit:
				k = s.foldTwoBit(b)
			case ScoreStatic:
				k = s.foldStatic(b)
			default:
				k = len(b) // an unknown kind scores nothing
			}
			if k == len(b) {
				break
			}
			if s.see(b[k].Site); b[k].Switch {
				k++
			}
			b = b[k:]
		}
	}
}

// foldProfile is Counts.RecordRun over b up to its first rare step, whose
// index it returns: a run is one addition.
func (s *Scorer) foldProfile(b []trace.Step) int {
	taken, notTaken := s.counts.Taken, s.counts.NotTaken
	for k := range b {
		st := &b[k]
		site := st.Site
		if uint(site) >= uint(len(taken)) || uint(site) >= uint(len(notTaken)) || st.Switch {
			return k
		}
		if st.Taken {
			taken[site] += st.N
		} else {
			notTaken[site] += st.N
		}
	}
	return len(b)
}

// foldLast is LastDirection.UpdateRun over b up to its first rare step,
// whose index it returns: a step misses once when its direction differs
// from the site's last.
func (s *Scorer) foldLast(b []trace.Step) int {
	last := s.last
	misses, total := s.misses, s.total
	k := 0
	for ; k < len(b); k++ {
		st := &b[k]
		site := st.Site
		if uint(site) >= uint(len(last)) || st.Switch {
			break
		}
		misses += uint64(b2u(last[site] != st.Taken))
		total += st.N
		last[site] = st.Taken
	}
	s.misses, s.total = misses, total
	return k
}

// foldTwoBit is TwoBit.UpdateRun over b up to its first rare step, whose
// index it returns, through twoBitRun.
func (s *Scorer) foldTwoBit(b []trace.Step) int {
	ctr := s.ctr
	misses, total := s.misses, s.total
	k := 0
	for ; k < len(b); k++ {
		st := &b[k]
		site := st.Site
		if uint(site) >= uint(len(ctr)) || st.Switch {
			break
		}
		c, m := twoBitSteps(ctr[site], st.Taken, st.N)
		ctr[site] = c
		misses += m
		total += st.N
	}
	s.misses, s.total = misses, total
	return k
}

// foldStatic is StaticScore.RecordRun over b up to its first rare step,
// whose index it returns.
func (s *Scorer) foldStatic(b []trace.Step) int {
	for k := range b {
		st := &b[k]
		if int(st.Site) >= s.sites || st.Switch {
			return k
		}
		s.static.RecordRun(st.Site, st.Taken, st.N)
	}
	return len(b)
}

// twoBitRun[min(n, 3)<<3 | c<<1 | t] is what a run of n >= 1 outcomes t
// does to a two-bit counter at c: the final counter in bits 0-1 and the
// run's misses in bits 2-3. It is built from the single step — a counter
// predicts taken from 2 up, so an outcome misses when (c>>1)^t is 1, and
// moves to sat[c<<1|t] — because after three identical outcomes the
// counter saturates in their direction and stops missing.
var twoBitRun = func() (tab [32]uint8) {
	sat := [8]uint8{0, 1, 0, 2, 1, 3, 2, 3}
	for k := uint8(1); k <= 3; k++ {
		for c0 := uint8(0); c0 < 4; c0++ {
			for t := uint8(0); t < 2; t++ {
				c, miss := c0, uint8(0)
				for range k {
					miss += c>>1 ^ t
					c = sat[c<<1|t]
				}
				tab[k<<3|c0<<1|t] = c | miss<<2
			}
		}
	}
	return tab
}()

// twoBitSteps applies a run of n >= 1 outcomes taken to a two-bit counter
// at c and returns the new counter and the run's misses, without a
// branch.
func twoBitSteps(c uint8, taken bool, n uint64) (uint8, uint64) {
	e := twoBitRun[(min(n, 3)<<3|uint64(c)<<1|uint64(b2u(taken)))&31]
	return e & 3, uint64(e >> 2)
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint8 {
	var u uint8
	if b {
		u = 1
	}
	return u
}

// see raises the site bound to cover site, extending the kind's table
// with fresh per-site state (the state a table sized up front starts
// with).
func (s *Scorer) see(site int32) {
	n := int(site) + 1
	if n <= s.sites {
		return
	}
	s.sites = n
	switch s.kind {
	case ScoreProfile:
		s.counts.Taken = extend(s.counts.Taken, n, 0)
		s.counts.NotTaken = extend(s.counts.NotTaken, n, 0)
	case ScoreLast:
		s.last = extend(s.last, n, false)
	case ScoreTwoBit:
		s.ctr = extend(s.ctr, n, 1)
	}
}

// extend lengthens s to n, setting the new elements to v.
func extend[T any](s []T, n int, v T) []T {
	old := len(s)
	if n <= old {
		return s
	}
	s = slices.Grow(s, n-old)[:n]
	for i := old; i < n; i++ {
		s[i] = v
	}
	return s
}
