// Command krallcheck runs the static analysis suite over BL programs or
// built-in workloads: CFG lint, state-machine well-formedness, profile
// consistency, and — unless -lint-only is set — the replication-equivalence
// verifier, which replays the full profile→machines→replicate pipeline with
// translation validation enabled and rejects any transform whose output is
// not a provable control-flow unfolding of its input.
//
// Usage:
//
//	krallcheck [flags] (file.bl ... | -workload NAME)
//
//	-workload NAME   check a built-in workload instead of source files
//	-states N        maximum machine size (default 5)
//	-budget N        branch budget for the profiling run (default 200000)
//	-seed N          dataset seed override
//	-joint           verify the joint (§6) replication driver
//	-max-size-factor F  replication size budget (default 3)
//	-lint-only       skip the replication equivalence check
//	-predict         print the static (profile-free) prediction report: the
//	                 per-site probability/confidence/heuristics table plus a
//	                 static-vs-profiled accuracy comparison; lint diagnostics
//	                 (including the SCCP dead-branch/always-taken warnings)
//	                 still run, the replication verifier does not. With no
//	                 targets, prints the catalog-wide accuracy table instead.
//	-q               print errors only
//
// Exit status: 0 when no pass reported an error (warnings are allowed), 1
// when any error diagnostic was reported, 2 on malformed input or internal
// failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/replicate"
	"repro/internal/statemachine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	states   int
	budget   uint64
	seed     int64
	joint    bool
	sizeFac  float64
	lintOnly bool
	predict  bool
	quiet    bool
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "krallcheck: internal error: %v\n", r)
			code = 2
		}
	}()
	fs := flag.NewFlagSet("krallcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "built-in workload name")
		opts     options
	)
	fs.IntVar(&opts.states, "states", 5, "maximum machine size")
	fs.Uint64Var(&opts.budget, "budget", 200_000, "branch budget for the profiling run")
	fs.Int64Var(&opts.seed, "seed", 0, "dataset seed override")
	fs.BoolVar(&opts.joint, "joint", false, "verify the joint replication driver")
	fs.Float64Var(&opts.sizeFac, "max-size-factor", 3, "replication size budget")
	fs.BoolVar(&opts.lintOnly, "lint-only", false, "skip the replication equivalence check")
	fs.BoolVar(&opts.predict, "predict", false, "print the static prediction report instead of verifying replication")
	fs.BoolVar(&opts.quiet, "q", false, "print errors only")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if opts.states < 2 {
		fmt.Fprintf(stderr, "krallcheck: -states %d out of range, need at least 2\n", opts.states)
		return 2
	}

	type target struct {
		name string
		prog func() (*ir.Program, error)
	}
	var targets []target
	switch {
	case *workload != "":
		w, err := bench.ByName(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "krallcheck:", err)
			return 2
		}
		targets = append(targets, target{name: w.Name, prog: func() (*ir.Program, error) {
			c, err := bench.Compile(w)
			if err != nil {
				return nil, err
			}
			return c.Prog, nil
		}})
	case fs.NArg() > 0:
		for _, path := range fs.Args() {
			path := path
			targets = append(targets, target{name: path, prog: func() (*ir.Program, error) {
				src, err := os.ReadFile(path)
				if err != nil {
					return nil, err
				}
				return lang.Compile(string(src))
			}})
		}
	default:
		if opts.predict {
			// No targets: the catalog-wide accuracy table.
			return predictCatalog(opts, stdout, stderr)
		}
		fmt.Fprintln(stderr, "usage: krallcheck [flags] (file.bl ... | -workload NAME)")
		fs.Usage()
		return 2
	}

	for _, tg := range targets {
		prog, err := tg.prog()
		if err != nil {
			fmt.Fprintf(stderr, "krallcheck: %s: %v\n", tg.name, err)
			return 2
		}
		check := checkOne
		if opts.predict {
			check = predictOne
		}
		if c := check(tg.name, prog, opts, stdout, stderr); c > code {
			code = c
		}
	}
	return code
}

// reportDiags prints diagnostics (errors always, warnings only without -q)
// and returns the counts. The exit-code contract hangs off the error count:
// any error diagnostic makes the target exit 1, warnings alone keep exit 0,
// and malformed input or internal failure is reported before this point as
// exit 2.
func reportDiags(name string, diags []analysis.Diagnostic, quiet bool, stdout io.Writer) (errs, warns int) {
	for _, d := range diags {
		if d.Sev == analysis.Error {
			errs++
			fmt.Fprintf(stdout, "%s: %s\n", name, d)
		} else {
			warns++
			if !quiet {
				fmt.Fprintf(stdout, "%s: %s\n", name, d)
			}
		}
	}
	return errs, warns
}

// checkOne analyses one compiled program and returns its exit code.
func checkOne(name string, prog *ir.Program, opts options, stdout, stderr io.Writer) int {
	nSites := prog.NumberBranches(true)
	if err := prog.Validate(); err != nil {
		fmt.Fprintf(stderr, "krallcheck: %s: invalid IR: %v\n", name, err)
		return 2
	}

	// Profile the program so machine selection, the profile-consistency
	// pass and the clustering pass have real data to check.
	p, err := profileOf(prog, opts)
	if err != nil {
		fmt.Fprintf(stderr, "krallcheck: %s: profiling run: %v\n", name, err)
		return 2
	}
	choices := p.Select(statemachine.Options{MaxStates: opts.states, MaxPathLen: 1})

	diags := analysis.Lint(prog, choices, p.Prof)
	verified := false
	if !opts.lintOnly {
		apply := replicate.ApplyOpts
		if opts.joint {
			apply = replicate.ApplyJoint
		}
		_, st, err := p.Transform(apply, choices, p.Preds(), replicate.Options{Verify: true, MaxSizeFactor: opts.sizeFac})
		if st != nil {
			diags = append(diags, st.Diags...)
		}
		if err != nil && !analysis.HasErrors(diags) {
			fmt.Fprintf(stderr, "krallcheck: %s: replication: %v\n", name, err)
			return 2
		}
		verified = st != nil && st.Verified
	}

	// The indirect family's pass: programs with switch dispatches also get
	// clustered (against the profiled target distribution) and re-derived
	// structurally. Switch-free programs report nothing.
	clusterStatus := ""
	if !opts.lintOnly {
		cl, err := p.Cluster(true)
		if err != nil {
			fmt.Fprintf(stderr, "krallcheck: %s: clustering: %v\n", name, err)
			return 2
		}
		if st := cl.Stats; st.Switches > 0 {
			diags = append(diags, cl.Diags...)
			if len(cl.Diags) == 0 {
				clusterStatus = fmt.Sprintf(", clustering verified (%d of %d dispatch sites)",
					st.Clustered, st.Switches)
			} else {
				clusterStatus = ", clustering NOT verified"
			}
		}
	}

	errs, warns := reportDiags(name, diags, opts.quiet, stdout)
	if !opts.quiet {
		status := "replication not checked"
		switch {
		case verified:
			status = "replication verified"
		case !opts.lintOnly:
			status = "replication NOT verified"
		}
		fmt.Fprintf(stdout, "%s: %d branch sites, %d errors, %d warnings, %s%s\n",
			name, nSites, errs, warns, status, clusterStatus)
	}
	if errs > 0 {
		return 1
	}
	return 0
}
