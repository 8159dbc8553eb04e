// Machines: visualise the branch prediction state machines the search
// builds for characteristic branch behaviours — the paper's Figures 2-5 as
// living objects — and compare the paper's optimistic pattern counting
// against exact automaton replay.
//
//	go run ./examples/machines
package main

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/statemachine"
)

// behaviours that exercise each machine family.
var behaviours = []struct {
	name    string
	desc    string
	outcome func(i int) bool
}{
	{"alternating", "T,N,T,N,... (Figure 1's loop)", func(i int) bool { return i%2 == 0 }},
	{"period-3", "T,T,N repeating", func(i int) bool { return i%3 != 2 }},
	{"count-4 loop", "4 iterations then exit (Figure 5)", func(i int) bool { return i%5 != 4 }},
	{"bursty", "runs of 8 taken / 8 not taken", func(i int) bool { return (i/8)%2 == 0 }},
	{"biased", "taken 7 times in 8, pseudo-randomly", func(i int) bool {
		x := uint32(i) * 2654435761
		return x%8 != 0
	}},
}

func main() {
	fmt.Println("branch prediction state machines for characteristic behaviours")
	for _, b := range behaviours {
		lh := profile.NewLocalHistory(1, 9)
		st := &profile.Streams{}
		*st = *profile.NewStreams(1)
		const events = 30000
		for i := 0; i < events; i++ {
			o := b.outcome(i)
			lh.RecordBranch(0, o)
			st.RecordBranch(0, o)
		}
		fmt.Printf("\n%s — %s\n", b.name, b.desc)
		prof := profile.Pair{}
		for _, p := range lh.Project(0, 1) {
			prof.Merge(p)
		}
		fmt.Printf("  profile majority:   %5.2f%% mispredicted\n",
			100*float64(prof.Misses())/float64(prof.Total()))
		for _, n := range []int{2, 3, 5} {
			paper := statemachine.BestLoopMachine(lh.Table(0), 9, n)
			exact := statemachine.BestLoopMachineExact(lh.Table(0), 9, n, st.Site(0))
			fmt.Printf("  %d states:  counting %5.2f%%  replayed %5.2f%%   %v\n",
				n, paper.Rate(), exact.Rate(), exact)
		}
		// The exit-machine view of the same stream (exit = not taken).
		em := statemachine.NewExitMachine(lh.Table(0), 9, 6, false)
		fmt.Printf("  exit machine (6 states): %5.2f%%  preds=%v\n", em.Rate(), em.PredTaken)
	}
}
