// Command replicate runs the paper's full pipeline on one BL program or
// built-in workload: profile, select branch prediction state machines,
// replicate code, and report the measured before/after misprediction rates
// and the code growth.
//
// Usage:
//
//	replicate [flags] (file.bl | -workload NAME)
//
//	-workload NAME  use a built-in workload instead of a source file
//	-states N       maximum machine size (default 5)
//	-budget N       branch budget for the profiling and measuring runs
//	-seed N         dataset seed override
//	-joint          use joint (§6) machines for same-loop branches
//	-check          run the replication-equivalence verifier on the transform
//	-dump           print the transformed IR
//	-v              per-branch strategy report
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/replicate"
	"repro/internal/statemachine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code: 0 on
// success, 1 on pipeline failure, 2 on malformed input or an internal fault.
func run(args []string, stdout, stderr io.Writer) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "replicate: internal error: %v\n", r)
			code = 2
		}
	}()
	fs := flag.NewFlagSet("replicate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "built-in workload name")
		states   = fs.Int("states", 5, "maximum machine size")
		budget   = fs.Uint64("budget", 2_000_000, "branch budget per run")
		seed     = fs.Int64("seed", 0, "dataset seed override")
		joint    = fs.Bool("joint", false, "use joint machines for same-loop branches")
		check    = fs.Bool("check", false, "run the replication-equivalence verifier on the transform")
		dump     = fs.Bool("dump", false, "print the transformed IR")
		verbose  = fs.Bool("v", false, "per-branch strategy report")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *states < 2 {
		fmt.Fprintf(stderr, "replicate: -states %d out of range, machines need at least 2 states\n", *states)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "replicate:", err)
		return 1
	}

	var prog *ir.Program
	var name string
	switch {
	case *workload != "":
		w, err := bench.ByName(*workload)
		if err != nil {
			return fail(err)
		}
		c, err := bench.Compile(w)
		if err != nil {
			return fail(err)
		}
		prog, name = c.Prog, w.Name
	case fs.NArg() == 1:
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		prog, err = lang.Compile(string(src))
		if err != nil {
			return fail(err)
		}
		name = fs.Arg(0)
	default:
		fmt.Fprintln(stderr, "usage: replicate [flags] (file.bl | -workload NAME)")
		fs.Usage()
		return 2
	}

	nSites := prog.NumberBranches(true)
	prof := profile.New(nSites, profile.Options{})
	execute := func(p *ir.Program, hook interp.BranchFunc) (*interp.Machine, error) {
		m := interp.New(p)
		m.MaxBranches = *budget
		m.Hook = hook
		if *seed != 0 {
			if err := m.SetGlobal("wseed", *seed); err != nil {
				return nil, err
			}
		}
		if *budget != 0 {
			// Built-in workloads scale via wscale; ad-hoc programs need not
			// declare it.
			_ = func() error { return m.SetGlobal("wscale", 1<<30) }()
		}
		if _, err := m.Run(); err != nil && err != interp.ErrLimit {
			return nil, err
		}
		return m, nil
	}
	fmt.Fprintf(stdout, "profiling %s (%d branch sites)...\n", name, nSites)
	if _, err := execute(prog, interp.BranchHook(prof)); err != nil {
		return fail(err)
	}

	feats := predict.Analyze(prog)
	choices := statemachine.Select(prof, feats, statemachine.Options{
		MaxStates:  *states,
		MaxPathLen: 1,
	})
	if *verbose {
		for i := range choices {
			c := &choices[i]
			if c.Total == 0 {
				continue
			}
			profTotal := c.ProfileTotal
			if profTotal == 0 {
				profTotal = 1
			}
			fmt.Fprintf(stdout, "  branch %3d: %-10v states=%d predicted %.2f%% (profile %.2f%%)\n",
				c.Site, c.Kind, c.NumStates(), c.Rate(),
				100*float64(c.ProfileTotal-c.ProfileHits)/float64(profTotal))
		}
	}

	preds := predict.ProfileStatic(prof.Counts).Preds
	baseline := ir.CloneProgram(prog)
	replicate.Annotate(baseline, preds)
	mb, err := execute(baseline, nil)
	if err != nil {
		return fail(err)
	}

	clone := ir.CloneProgram(prog)
	ropts := replicate.Options{MaxSizeFactor: 3, Verify: *check}
	var st *replicate.Stats
	if *joint {
		st, err = replicate.ApplyJoint(clone, choices, preds, ropts)
	} else {
		st, err = replicate.ApplyOpts(clone, choices, preds, ropts)
	}
	if err != nil {
		return fail(err)
	}
	if st.Verified {
		fmt.Fprintln(stdout, "transform verified: replication equivalence holds")
	}
	mr, err := execute(clone, nil)
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "\nprofile baseline: %.3f%% mispredicted (%d/%d)\n",
		pct(mb.Mispredicted, mb.Predicted), mb.Mispredicted, mb.Predicted)
	fmt.Fprintf(stdout, "replicated:       %.3f%% mispredicted (%d/%d)\n",
		pct(mr.Mispredicted, mr.Predicted), mr.Mispredicted, mr.Predicted)
	fmt.Fprintf(stdout, "code size:        %d -> %d instructions (factor %.2f)\n",
		st.InstrsBefore, st.InstrsAfter, st.SizeFactor())
	fmt.Fprintf(stdout, "machines applied: %d loop, %d exit, %d correlated (%d edges routed, %d catch-all)\n",
		st.LoopApplied, st.ExitApplied, st.PathApplied, st.PathEdgesRouted, st.PathEdgesCatchAll)
	if mb.Checksum != mr.Checksum {
		return fail(fmt.Errorf("checksum changed: %d -> %d", mb.Checksum, mr.Checksum))
	}
	fmt.Fprintln(stdout, "semantics verified: checksums identical")
	if *dump {
		fmt.Fprint(stdout, clone.String())
	}
	return 0
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
