package analysis

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ir"
)

// This file assembles the static predictability report: the Ball–Larus
// heuristic evidence (heuristics.go) merged with the SCCP branch facts
// (sccp.go) into one per-site record, plus the StaticPredict pass that
// surfaces statically-decided branches as diagnostics. The report is the
// engine's public product — predict.StaticHeuristic scores it against
// recorded traces, replicate's static budget mode skips its decided sites,
// and kralld's /v1/analyze endpoint serialises it.

// SiteReport is the full static-prediction record for one branch site.
type SiteReport struct {
	Site int32
	Func string
	// Prob is the Dempster–Shafer combined taken probability (0.5 when no
	// heuristic fired and SCCP proved nothing).
	Prob float64
	// Confidence is |Prob−0.5|·2; 1 for SCCP-decided sites.
	Confidence float64
	// Fired lists the heuristics that contributed.
	Fired []Heuristic
	// LoopDepth is the branch block's loop nesting depth (0 = no loop).
	LoopDepth int
	// Fact is the SCCP verdict; when it decides the branch it overrides
	// the heuristic probability.
	Fact BranchFact
	// Pred is the final static direction for the site; PredNone for
	// switch sites.
	Pred ir.Prediction
	// Switch marks a multi-way dispatch site: no two-way direction
	// applies, and the indirect clustering family owns its prediction.
	Switch bool
}

// Heuristics renders the fired heuristic names, comma-separated.
func (s *SiteReport) Heuristics() string {
	if len(s.Fired) == 0 {
		return "-"
	}
	names := make([]string, len(s.Fired))
	for i, h := range s.Fired {
		names[i] = h.String()
	}
	return strings.Join(names, ",")
}

// StaticReport is the whole-program static predictability report, indexed
// by branch site ID.
type StaticReport struct {
	Sites []SiteReport
}

// BuildStaticReport runs the heuristic and SCCP analyses over a
// branch-numbered program and merges their results. SCCP facts win where
// they decide a site: an always-taken proof forces probability 1, a
// never-taken (dead-branch) proof forces 0, and an unreachable branch keeps
// its heuristic probability (it never executes, so any direction scores
// identically) but is flagged for the report.
func BuildStaticReport(prog *ir.Program) (*StaticReport, error) {
	r := &StaticReport{Sites: HeuristicSites(NewContext(prog))}
	sccp, err := SCCP(prog)
	if err != nil {
		return nil, err
	}
	for i := range r.Sites {
		s := &r.Sites[i]
		if i < len(sccp.Facts) {
			s.Fact = sccp.Facts[i]
		}
		if !s.Switch {
			switch s.Fact {
			case FactAlwaysTaken:
				s.Prob = 1
			case FactNeverTaken:
				s.Prob = 0
			}
		}
		s.settle()
	}
	return r, nil
}

// settle derives the direction and confidence from Prob. Strictly above one
// half predicts taken, everything else not-taken (the repository-wide tie
// convention); switch sites have no two-way direction and predict nothing.
func (s *SiteReport) settle() {
	s.Confidence = math.Abs(s.Prob-0.5) * 2
	switch {
	case s.Switch:
		s.Pred = ir.PredNone
	case s.Prob > 0.5:
		s.Pred = ir.PredTaken
	default:
		s.Pred = ir.PredNotTaken
	}
}

// Predictions returns the per-site static directions, indexed by site ID —
// the input shape predict.StaticHeuristic and replicate.Annotate expect.
func (r *StaticReport) Predictions() []ir.Prediction {
	out := make([]ir.Prediction, len(r.Sites))
	for i := range r.Sites {
		out[i] = r.Sites[i].Pred
	}
	return out
}

// DecidedSites flags the sites SCCP decided (always-taken, never-taken, or
// unreachable), indexed by site ID — replication budget spent on these is
// wasted, and replicate's static budget mode skips them.
func (r *StaticReport) DecidedSites() []bool {
	out := make([]bool, len(r.Sites))
	for i := range r.Sites {
		out[i] = r.Sites[i].Fact != FactNone
	}
	return out
}

// Decided counts the sites SCCP decided.
func (r *StaticReport) Decided() int {
	n := 0
	for i := range r.Sites {
		if r.Sites[i].Fact != FactNone {
			n++
		}
	}
	return n
}

// StaticPredict is the diagnostics face of the static prediction engine: it
// reports every SCCP-decided branch as a warning — "always-taken" for a
// condition proven non-zero, "dead-branch" for one proven zero (the taken
// arm can never execute) and for branches no executable path reaches.
// Warnings, not errors: a statically-decided branch is legal, just wasteful
// to replicate and worth surfacing.
type StaticPredict struct{}

// Name implements Pass.
func (StaticPredict) Name() string { return "staticpredict" }

// Run implements Pass. The program must have numbered branch sites.
func (StaticPredict) Run(c *Context) {
	sccp, err := SCCP(c.Prog)
	if err != nil {
		c.Errorf(Pos{Block: -1, Instr: -1}, "ssa construction failed: %v", err)
		return
	}
	for _, f := range c.Prog.Funcs {
		for _, b := range f.Blocks {
			site := b.Term.Site
			if int(site) >= len(sccp.Facts) {
				continue
			}
			if b.Term.Op == ir.TermSwitch {
				if sccp.Facts[site] == FactUnreachable {
					c.Warnf(BlockPos(f, b), "dead-switch: site %d is unreachable on every executable path", site)
				}
				continue
			}
			// SwTest branches share the governing switch's site; the fact
			// there describes the switch, not this branch.
			if b.Term.Op != ir.TermBr || b.Term.SwTest {
				continue
			}
			switch sccp.Facts[site] {
			case FactAlwaysTaken:
				c.Warnf(BlockPos(f, b), "always-taken: site %d condition is provably non-zero; not-taken arm b%d is dead", site, b.Term.Else.ID)
			case FactNeverTaken:
				c.Warnf(BlockPos(f, b), "dead-branch: site %d condition is provably zero; taken arm b%d is dead", site, b.Term.Then.ID)
			case FactUnreachable:
				c.Warnf(BlockPos(f, b), "dead-branch: site %d is unreachable on every executable path", site)
			}
		}
	}
}

// FormatSiteTable renders the per-site report as an aligned text table, the
// output of krallcheck -predict for a single workload.
func FormatSiteTable(w *strings.Builder, name string, r *StaticReport) {
	fmt.Fprintf(w, "static prediction: %s (%d sites, %d decided)\n", name, len(r.Sites), r.Decided())
	fmt.Fprintf(w, "%6s  %-16s %5s  %5s  %5s  %-12s  %s\n", "site", "func", "prob", "conf", "depth", "fact", "heuristics")
	for i := range r.Sites {
		s := &r.Sites[i]
		fmt.Fprintf(w, "%6d  %-16s %5.3f  %5.3f  %5d  %-12s  %s\n",
			s.Site, s.Func, s.Prob, s.Confidence, s.LoopDepth, s.Fact, s.Heuristics())
	}
}
