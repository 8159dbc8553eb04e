package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/trace"
)

// This file implements krallcheck -predict: the static (profile-free)
// branch-prediction report. Per target it prints the per-site table
// (probability, confidence, firing heuristics, loop depth, SCCP fact) and a
// static-vs-profiled accuracy comparison; with no targets it prints the
// catalog-wide accuracy table that CI uploads as a build artifact.

// staticStrategies builds the compared prediction vectors in render order.
// The profiled oracle is last, as the lower bound static prediction chases.
func staticStrategies(nSites int, feats []predict.SiteFeatures, rep *analysis.StaticReport, counts *trace.Counts) []*predict.Static {
	return []*predict.Static{
		predict.AlwaysTaken(nSites),
		predict.BackwardTaken(feats),
		predict.BallLarus(feats),
		predict.StaticHeuristic(rep.Predictions()),
		predict.ProfileStatic(counts),
	}
}

func missRate(misses, total uint64) string {
	if total == 0 {
		return "     -"
	}
	return fmt.Sprintf("%6.2f", 100*float64(misses)/float64(total))
}

// profileCounts runs the program once under the interpreter with the
// profiling hook attached, honouring the budget and seed options.
func profileCounts(prog *ir.Program, nSites int, opts options) (*profile.Profile, error) {
	prof := profile.New(nSites, profile.Options{})
	m := interp.New(prog)
	m.MaxBranches = opts.budget
	m.Hook = interp.BranchHook(prof)
	if opts.seed != 0 {
		// Only workloads declare wseed; ad-hoc programs simply lack it.
		_ = m.SetGlobal("wseed", opts.seed)
	}
	if _, err := m.Run(); err != nil && err != interp.ErrLimit {
		return nil, err
	}
	return prof, nil
}

// predictOne prints one target's static prediction report and returns its
// exit code. Lint and the StaticPredict diagnostics run (errors exit 1);
// the replication verifier does not.
func predictOne(name string, prog *ir.Program, opts options, stdout, stderr io.Writer) int {
	nSites := prog.NumberBranches(true)
	if err := prog.Validate(); err != nil {
		fmt.Fprintf(stderr, "krallcheck: %s: invalid IR: %v\n", name, err)
		return 2
	}
	rep, err := analysis.BuildStaticReport(prog)
	if err != nil {
		fmt.Fprintf(stderr, "krallcheck: %s: static analysis: %v\n", name, err)
		return 2
	}
	prof, err := profileCounts(prog, nSites, opts)
	if err != nil {
		fmt.Fprintf(stderr, "krallcheck: %s: profiling run: %v\n", name, err)
		return 2
	}

	if !opts.quiet {
		var sb strings.Builder
		analysis.FormatSiteTable(&sb, name, rep)
		fmt.Fprint(stdout, sb.String())
		fmt.Fprintf(stdout, "%s: accuracy vs the profiling run (miss %%):\n", name)
		for _, s := range staticStrategies(nSites, predict.Analyze(prog), rep, prof.Counts) {
			r := s.Score(prof.Counts)
			fmt.Fprintf(stdout, "  %-18s %s\n", s.Strategy, missRate(r.Misses, r.Total))
		}
	}

	diags := analysis.Lint(prog, nil, prof)
	mgr := &analysis.Manager{Passes: []analysis.Pass{analysis.StaticPredict{}}}
	diags = append(diags, mgr.Run(analysis.NewContext(prog))...)
	errs, warns := reportDiags(name, diags, opts.quiet, stdout)
	if !opts.quiet {
		fmt.Fprintf(stdout, "%s: %d branch sites, %d statically decided, %d errors, %d warnings\n",
			name, nSites, rep.Decided(), errs, warns)
	}
	if errs > 0 {
		return 1
	}
	return 0
}

// predictCatalog prints the catalog-wide static prediction accuracy table:
// one row per built-in workload plus an aggregate, comparing each
// profile-free strategy against the profiled oracle.
func predictCatalog(opts options, stdout, stderr io.Writer) int {
	names := []string{"always-taken", "btfn", "ball-larus", "static-heur", "profile"}
	fmt.Fprintf(stdout, "static prediction accuracy across the catalog (budget %d branches per workload, miss %%):\n", opts.budget)
	fmt.Fprintf(stdout, "  %-12s %6s %8s", "workload", "sites", "decided")
	for _, n := range names {
		fmt.Fprintf(stdout, " %12s", n)
	}
	fmt.Fprintln(stdout)
	var misses, totals [5]uint64
	sites, decided := 0, 0
	for _, w := range bench.Workloads() {
		c, err := bench.Compile(w)
		if err != nil {
			fmt.Fprintf(stderr, "krallcheck: %s: %v\n", w.Name, err)
			return 2
		}
		rep, err := analysis.BuildStaticReport(c.Prog)
		if err != nil {
			fmt.Fprintf(stderr, "krallcheck: %s: static analysis: %v\n", w.Name, err)
			return 2
		}
		prof, err := profileCounts(c.Prog, c.NSites, opts)
		if err != nil {
			fmt.Fprintf(stderr, "krallcheck: %s: profiling run: %v\n", w.Name, err)
			return 2
		}
		fmt.Fprintf(stdout, "  %-12s %6d %8d", w.Name, c.NSites, rep.Decided())
		for i, s := range staticStrategies(c.NSites, c.Features, rep, prof.Counts) {
			r := s.Score(prof.Counts)
			fmt.Fprintf(stdout, " %12s", missRate(r.Misses, r.Total))
			misses[i] += r.Misses
			totals[i] += r.Total
		}
		fmt.Fprintln(stdout)
		sites += c.NSites
		decided += rep.Decided()
	}
	fmt.Fprintf(stdout, "  %-12s %6d %8d", "ALL", sites, decided)
	for i := range names {
		fmt.Fprintf(stdout, " %12s", missRate(misses[i], totals[i]))
	}
	fmt.Fprintln(stdout)
	return 0
}
