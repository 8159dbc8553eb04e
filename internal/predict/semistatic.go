package predict

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Result is one strategy's score over one workload.
type Result struct {
	Name   string
	Misses uint64
	Total  uint64
}

// Rate is the misprediction rate in percent.
func (r Result) Rate() float64 { return pct(r.Misses, r.Total) }

func (r Result) String() string {
	return fmt.Sprintf("%s: %.2f%% (%d/%d)", r.Name, r.Rate(), r.Misses, r.Total)
}

// ProfileResult scores the plain profile strategy (predict each branch's
// majority direction, trained and evaluated on the same trace, exactly as
// the paper's Table 1 does).
func ProfileResult(c *trace.Counts) Result { return ProfileStatic(c).Score(c) }

// ProfileStatic converts trace counts into the per-site majority prediction
// vector (the input the replicator starts from).
func ProfileStatic(c *trace.Counts) *Static {
	return &Static{Strategy: "profile", Preds: majority(make([]ir.Prediction, 0, len(c.Taken)), c)}
}

// majority appends each site's majority direction over c to dst: taken
// only when taken outcomes outnumber not-taken ones (the repository-wide
// tie convention).
func majority(dst []ir.Prediction, c *trace.Counts) []ir.Prediction {
	for site := range c.Taken {
		p := ir.PredNotTaken
		if c.Taken[site] > c.NotTaken[site] {
			p = ir.PredTaken
		}
		dst = append(dst, p)
	}
	return dst
}

// LoopResult scores the k-bit loop (local history) strategy: each branch's
// k-bit pattern table predicts per-pattern majority. Warm-up events per
// site (the first k) are excluded, matching how the tables are built.
func LoopResult(h *profile.LocalHistory) Result {
	r := Result{Name: fmt.Sprintf("%d bit loop", h.K)}
	for s := 0; s < h.NumSites(); s++ {
		m, t := h.SiteMisses(int32(s))
		r.Misses += m
		r.Total += t
	}
	return r
}

// CorrelationResult scores the k-bit correlation (global history) strategy.
func CorrelationResult(h *profile.GlobalHistory) Result {
	r := Result{Name: fmt.Sprintf("%d bit correlation", h.K)}
	for s := 0; s < h.NumSites(); s++ {
		m, t := h.SiteMisses(int32(s))
		r.Misses += m
		r.Total += t
	}
	return r
}

// LoopCorrelationResult scores the paper's combined strategy: for every
// branch take whichever of the loop and correlation strategies has the
// lower misprediction rate on that branch. It also returns, per site,
// whether the combination improves on plain profile prediction (the
// "improved branches" row of Table 1).
func LoopCorrelationResult(local *profile.LocalHistory, global *profile.GlobalHistory, c *trace.Counts) (Result, []bool) {
	n := local.NumSites()
	improved := make([]bool, n)
	r := Result{Name: "loop-correlation"}
	for s := 0; s < n; s++ {
		lm, lt := local.SiteMisses(int32(s))
		gm, gt := global.SiteMisses(int32(s))
		m, t := lm, lt
		if rate(gm, gt) < rate(lm, lt) {
			m, t = gm, gt
		}
		r.Misses += m
		r.Total += t
		prof := profile.Pair{Taken: c.Taken[s], NotTaken: c.NotTaken[s]}
		if t > 0 && prof.Total() > 0 && rate(m, t) < rate(prof.Misses(), prof.Total()) {
			improved[s] = true
		}
	}
	return r, improved
}

func rate(m, t uint64) float64 {
	if t == 0 {
		return 0
	}
	return float64(m) / float64(t)
}
