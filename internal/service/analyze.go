package service

import (
	"context"
	"math"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/runner"
)

// --- POST /v1/analyze ---------------------------------------------------

// AnalyzeSite is one branch site's static prediction row: the combined
// heuristic probability, the SCCP verdict, and the evidence that fired.
type AnalyzeSite struct {
	Site int32  `json:"site"`
	Func string `json:"func"`
	// Prob is the Dempster–Shafer combined taken probability, rounded to
	// four decimals so responses stay byte-stable across architectures.
	Prob       float64 `json:"prob"`
	Confidence float64 `json:"confidence"`
	LoopDepth  int     `json:"loop_depth"`
	// Fact is the SCCP verdict: "always-taken", "never-taken",
	// "unreachable", or "undecided".
	Fact string `json:"fact"`
	// Heuristics names the firing heuristics, comma-separated ("-" when
	// only the 0.5 prior applies).
	Heuristics string `json:"heuristics"`
	// Pred is the resulting static prediction ("taken" / "not_taken").
	Pred string `json:"pred"`
}

// AnalyzeResponse answers /v1/analyze.
type AnalyzeResponse struct {
	SchemaV  string `json:"schema"`
	Kind     string `json:"kind"`
	Program  string `json:"program"`
	NumSites int    `json:"num_sites"`
	// Decided counts sites the dataflow analysis proved one-way (their
	// Prob is pinned to 0 or 1 regardless of the heuristics).
	Decided int           `json:"decided"`
	Sites   []AnalyzeSite `json:"sites"`
}

// round4 keeps probabilities byte-stable in JSON: four decimals is finer
// than any heuristic product the engine produces distinguishable pairs at.
func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// staticReportFor builds — or fetches from the store — the static
// predictability report of a compiled program. The report is a pure
// function of the IR, so it is content-addressed on the program key alone;
// the analyze counters advance only on cold computes, mirroring the
// engine's record-once discipline. Shared with /v1/replicate's
// static_budget mode.
func (s *Server) staticReportFor(c *compiled) (*analysis.StaticReport, error) {
	key := contentKey("staticrep", c.key)
	return runner.Cached(s.store.mem, key, func() (*analysis.StaticReport, error) {
		rep, err := analysis.BuildStaticReport(c.prog)
		if err != nil {
			return nil, badRequest("static analysis: %v", err)
		}
		s.analyzeSites.Add(int64(len(rep.Sites)))
		s.analyzeDecided.Add(int64(rep.Decided()))
		return rep, nil
	})
}

// handleAnalyze is POST /v1/analyze: the profile-free static prediction
// report. It runs no program — a hot program costs one store lookup plus
// envelope assembly.
func (s *Server) handleAnalyze(ctx context.Context, req *Request) (any, error) {
	c, err := s.resolveProgram(req)
	if err != nil {
		return nil, err
	}
	rep, err := s.staticReportFor(c)
	if err != nil {
		return nil, err
	}
	resp := &AnalyzeResponse{
		SchemaV:  Schema,
		Kind:     "analyze",
		Program:  c.name,
		NumSites: c.nsites,
		Decided:  rep.Decided(),
	}
	for i := range rep.Sites {
		sr := &rep.Sites[i]
		pred := "not_taken"
		if sr.Pred == ir.PredTaken {
			pred = "taken"
		}
		resp.Sites = append(resp.Sites, AnalyzeSite{
			Site:       sr.Site,
			Func:       sr.Func,
			Prob:       round4(sr.Prob),
			Confidence: round4(sr.Confidence),
			LoopDepth:  sr.LoopDepth,
			Fact:       sr.Fact.String(),
			Heuristics: sr.Heuristics(),
			Pred:       pred,
		})
	}
	return resp, nil
}
