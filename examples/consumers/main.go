// Consumers: the compiler optimisations the paper's prediction feeds —
// Pettis–Hansen code positioning and superblock (trace) formation — run on
// one workload before and after code replication, showing that replication
// both lays out better and gives a scheduler more straight-line scope.
//
//	go run ./examples/consumers [-workload NAME]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/replicate"
	"repro/internal/statemachine"
	"repro/internal/superblock"
	"repro/internal/trace"
)

func main() {
	workload := flag.String("workload", "scheduler", "workload name")
	budget := flag.Uint64("budget", 500_000, "branch events per run")
	flag.Parse()

	w, err := bench.ByName(*workload)
	if err != nil {
		log.Fatal(err)
	}
	c, err := bench.Compile(w)
	if err != nil {
		log.Fatal(err)
	}

	// Profile the original.
	prof, _, err := c.ProfileRun(bench.RunConfig{Budget: *budget, Scale: 1 << 30}, profile.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Replicate.
	static := predict.ProfileStatic(prof.Counts)
	choices := statemachine.Select(prof, c.Features, statemachine.Options{
		MaxStates: 5, MaxPathLen: 1,
	})
	clone := ir.CloneProgram(c.Prog)
	st, err := replicate.ApplyOpts(clone, choices, static.Preds, replicate.Options{MaxSizeFactor: 3})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("consumers on %q (replicated at %.2fx size)\n\n", w.Name, st.SizeFactor())
	fmt.Printf("  %-34s %10s %10s\n", "", "original", "replicated")
	origLay, origScope := measure(c.Prog, *budget)
	replLay, replScope := measure(clone, *budget)
	phO := layoutRate(c.Prog, *budget, true)
	phR := layoutRate(clone, *budget, true)
	fmt.Printf("  %-34s %9.2f%% %9.2f%%\n", "taken transfers, naive layout", origLay, replLay)
	fmt.Printf("  %-34s %9.2f%% %9.2f%%\n", "taken transfers, PH layout", phO, phR)
	fmt.Printf("  %-34s %10.1f %10.1f\n", "avg dynamic trace length (instrs)", origScope, replScope)
}

// measure profiles a program and returns (naive-layout taken rate, avg
// dynamic trace length).
func measure(prog *ir.Program, budget uint64) (float64, float64) {
	bc, counts := runCounts(prog, budget)
	lay := layout.EvaluateProgram(prog, bc, counts, false)
	scope := superblock.MeasureProgram(prog, bc, counts)
	return lay.TakenRate(), scope.AvgDynamicLength()
}

func layoutRate(prog *ir.Program, budget uint64, ph bool) float64 {
	bc, counts := runCounts(prog, budget)
	return layout.EvaluateProgram(prog, bc, counts, ph).TakenRate()
}

func runCounts(prog *ir.Program, budget uint64) ([][]uint64, *trace.Counts) {
	n := prog.NumberBranches(false)
	counts := trace.NewCounts(n)
	m := interp.New(prog)
	m.EnableBlockCounts()
	m.Hook = interp.BranchHook(counts)
	m.MaxBranches = budget
	if err := m.SetGlobal("wscale", 1<<30); err != nil {
		log.Fatal(err)
	}
	if _, err := m.Run(); err != nil && !errors.Is(err, interp.ErrLimit) {
		log.Fatal(err)
	}
	return m.BlockCounts(), counts
}
