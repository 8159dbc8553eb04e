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
// while it is read: kralld's /v1/score, fed by trace.ReadSlabInto's
// validating pass for uploads or by ReplayInto for stored slabs. It is a
// single collector, one dynamic dispatch per event or run, over the tables
// of the collector it stands in for — Counts, LastDirection, TwoBit or
// StaticScore, run through their own methods — so its verdict is theirs.
// The per-site tables grow when a site is first seen and Reset only
// truncates them, so a pooled Scorer does no work proportional to a site
// cap, only to the sites a trace names.
type Scorer struct {
	kind ScoreKind
	// sites is the site bound over every event; n is the length of the
	// kind's table, the bound over branch events.
	sites, n int
	counts   trace.Counts
	last     LastDirection
	two      TwoBit
	static   StaticScore
	// misses and total accumulate the last and twobit verdicts.
	misses, total uint64
}

var (
	_ trace.Collector       = (*Scorer)(nil)
	_ trace.SwitchCollector = (*Scorer)(nil)
)

// Reset readies the scorer for a new trace under kind; preds is the
// prediction vector ScoreStatic scores (sites beyond it count as PredNone)
// and is otherwise ignored.
func (s *Scorer) Reset(kind ScoreKind, preds []ir.Prediction) {
	s.kind, s.sites, s.n, s.misses, s.total = kind, 0, 0, 0, 0
	s.counts.Taken, s.counts.NotTaken = s.counts.Taken[:0], s.counts.NotTaken[:0]
	s.last.last, s.last.seen = s.last.last[:0], s.last.seen[:0]
	s.two.ctr = s.two.ctr[:0]
	s.static = StaticScore{Preds: preds}
}

// Sites is the site bound of the trace so far: max(site)+1 over every
// event seen, switch events included, 0 before any event — what
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

// RecordBranch implements trace.Collector. It is RecordRun for n = 1,
// spelled out so a plain event costs one call.
func (s *Scorer) RecordBranch(site int32, taken bool) {
	if int(site) >= s.n {
		s.grow(int(site) + 1)
	}
	switch s.kind {
	case ScoreProfile:
		s.counts.RecordBranch(site, taken)
	case ScoreLast:
		s.misses += s.last.UpdateRun(site, taken, 1)
		s.total++
	case ScoreTwoBit:
		s.misses += s.two.UpdateRun(site, taken, 1)
		s.total++
	case ScoreStatic:
		s.static.RecordRun(site, taken, 1)
	}
}

// RecordRun implements trace.Collector.
func (s *Scorer) RecordRun(site int32, taken bool, n uint64) {
	if int(site) >= s.n {
		s.grow(int(site) + 1)
	}
	switch s.kind {
	case ScoreProfile:
		s.counts.RecordRun(site, taken, n)
	case ScoreLast:
		s.misses += s.last.UpdateRun(site, taken, n)
		s.total += n
	case ScoreTwoBit:
		s.misses += s.two.UpdateRun(site, taken, n)
		s.total += n
	case ScoreStatic:
		s.static.RecordRun(site, taken, n)
	}
}

// RecordSwitch implements trace.SwitchCollector: no strategy scores
// switch events, but their sites share the dense site space and so raise
// the site bound.
func (s *Scorer) RecordSwitch(site, _ int32) {
	if int(site) >= s.sites {
		s.sites = int(site) + 1
	}
}

// RecordSwitchRun implements trace.SwitchCollector.
func (s *Scorer) RecordSwitchRun(site, outcome int32, _ uint64) { s.RecordSwitch(site, outcome) }

// grow extends the kind's table to n sites with fresh per-site state (the
// state a table sized up front starts with) and raises the site bound.
func (s *Scorer) grow(n int) {
	s.n, s.sites = n, max(s.sites, n)
	switch s.kind {
	case ScoreProfile:
		s.counts.Taken = extend(s.counts.Taken, n, 0)
		s.counts.NotTaken = extend(s.counts.NotTaken, n, 0)
	case ScoreLast:
		s.last.last = extend(s.last.last, n, false)
		s.last.seen = extend(s.last.seen, n, false)
	case ScoreTwoBit:
		s.two.ctr = extend(s.two.ctr, n, 1)
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
