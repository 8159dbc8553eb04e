package service

import (
	"sync"

	"repro/internal/ir"
	"repro/internal/predict"
	"repro/internal/trace"
)

// scoreState is the per-request scoring state of /v1/score, recycled
// through scorePool: the scorer, whose per-site tables grow on a site's
// first sight and are only truncated between requests, and the prediction
// vector of the static strategy. An upload is scored inside the validating
// pass that decodes it (trace.ReadSlabInto), a stored slab by one replay;
// neither path allocates scoring tables per request or does work
// proportional to the site cap.
type scoreState struct {
	score predict.Scorer
	preds []ir.Prediction
}

// scorePool hands each score request, endpoint or batch item, a
// scoreState of its own for the request's length; the scorer's tables
// keep the capacity earlier requests grew them to.
var scorePool = sync.Pool{New: func() any { return new(scoreState) }}

// scoreKinds maps the strategy names /v1/score accepts.
var scoreKinds = map[string]predict.ScoreKind{
	"profile": predict.ScoreProfile,
	"last":    predict.ScoreLast,
	"twobit":  predict.ScoreTwoBit,
	"static":  predict.ScoreStatic,
}

// prepare resets the scorer for strategy and returns it as the trace's
// collector, or nil when the strategy is unknown. The request's strategy
// and preds are judged only after its trace (see judge), so prepare never
// fails: a bad preds entry ends the vector early, which changes nothing
// once judge refuses it.
func (st *scoreState) prepare(strategy string, reqPreds []string) trace.Collector {
	kind, ok := scoreKinds[strategy]
	if !ok {
		st.score.Reset(predict.ScoreProfile, nil)
		return nil
	}
	st.preds = st.preds[:0]
	if kind == predict.ScoreStatic {
		for _, p := range reqPreds {
			pred, ok := parsePred(p)
			if !ok {
				break
			}
			st.preds = append(st.preds, pred)
		}
	}
	st.score.Reset(kind, st.preds)
	return &st.score
}

// judge refuses what prepare let through, in the order the checks have
// always run: an unknown strategy, then a preds vector longer than the
// trace's sites, then its first unknown entry.
func judge(strategy string, reqPreds []string, nsites int) error {
	if _, ok := scoreKinds[strategy]; !ok {
		return badRequest("unknown strategy %q (want profile, last, twobit, or static)", strategy)
	}
	if strategy != "static" {
		return nil
	}
	if len(reqPreds) > nsites {
		return badRequest("preds has %d entries for %d sites", len(reqPreds), nsites)
	}
	for i, p := range reqPreds {
		if _, ok := parsePred(p); !ok {
			return badRequest("preds[%d]: unknown prediction %q", i, p)
		}
	}
	return nil
}

func parsePred(p string) (ir.Prediction, bool) {
	switch p {
	case "taken":
		return ir.PredTaken, true
	case "not_taken":
		return ir.PredNotTaken, true
	case "none", "":
		return ir.PredNone, true
	}
	return ir.PredNone, false
}
