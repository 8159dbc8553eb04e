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
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lang"
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

	cell := core.Cell{Budget: *budget, Seed: *seed}
	if *budget != 0 {
		// Built-in workloads scale via wscale; ad-hoc programs need not
		// declare it.
		cell = cell.Fill(prog, 0, core.FullScale)
	}
	fmt.Fprintf(stdout, "profiling %s (%d branch sites)...\n", name, prog.NumberBranches(true))
	p, err := core.Profile(context.Background(), prog, cell)
	if err != nil {
		return fail(err)
	}
	apply := replicate.ApplyOpts
	if *joint {
		apply = replicate.ApplyJoint
	}
	res, err := p.Replicate(context.Background(), statemachine.Options{MaxStates: *states, MaxPathLen: 1},
		apply, replicate.Options{MaxSizeFactor: 3, Verify: *check})
	if err != nil {
		return fail(err)
	}
	if *verbose {
		for i := range res.Choices {
			c := &res.Choices[i]
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
	st, mb, mr := res.Stats, res.Baseline, res.Replica
	if st.Verified {
		fmt.Fprintln(stdout, "transform verified: replication equivalence holds")
	}

	fmt.Fprintf(stdout, "\nprofile baseline: %.3f%% mispredicted (%d/%d)\n", mb.Rate(), mb.Mispredicted, mb.Predicted)
	fmt.Fprintf(stdout, "replicated:       %.3f%% mispredicted (%d/%d)\n", mr.Rate(), mr.Mispredicted, mr.Predicted)
	fmt.Fprintf(stdout, "code size:        %d -> %d instructions (factor %.2f)\n",
		st.InstrsBefore, st.InstrsAfter, st.SizeFactor())
	fmt.Fprintf(stdout, "machines applied: %d loop, %d exit, %d correlated (%d edges routed, %d catch-all)\n",
		st.LoopApplied, st.ExitApplied, st.PathApplied, st.PathEdgesRouted, st.PathEdgesCatchAll)
	if mr.Walked {
		// A walked clone reports the recording's checksum: run it live
		// once for its own output, and hold its score to the walk's.
		live, err := core.Measure(context.Background(), res.Replicated, cell, nil)
		if err != nil {
			return fail(err)
		}
		if live.Predicted != mr.Predicted || live.Mispredicted != mr.Mispredicted {
			return fail(fmt.Errorf("walked score %d/%d differs from the live run's %d/%d",
				mr.Mispredicted, mr.Predicted, live.Mispredicted, live.Predicted))
		}
		mr.Checksum = live.Checksum
	}
	if mb.Checksum != mr.Checksum {
		return fail(fmt.Errorf("checksum changed: %d -> %d", mb.Checksum, mr.Checksum))
	}
	fmt.Fprintln(stdout, "semantics verified: checksums identical")
	if *dump {
		fmt.Fprint(stdout, res.Replicated.String())
	}
	return 0
}
