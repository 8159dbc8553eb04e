package statemachine

import (
	"fmt"

	"repro/internal/predict"
	"repro/internal/profile"
)

// Kind names the strategy family chosen for one branch.
type Kind uint8

const (
	// KindProfile is plain majority prediction (no state machine).
	KindProfile Kind = iota
	// KindLoop is an intra-loop local-history machine.
	KindLoop
	// KindExit is a loop-exit chain machine.
	KindExit
	// KindPath is a correlated (path) machine.
	KindPath
)

func (k Kind) String() string {
	switch k {
	case KindProfile:
		return "profile"
	case KindLoop:
		return "loop"
	case KindExit:
		return "exit"
	case KindPath:
		return "correlated"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Choice is the selected strategy for one branch site, with its score.
type Choice struct {
	Site int32
	Kind Kind
	Loop *LoopMachine
	Exit *ExitMachine
	Path *PathMachine

	// Hits/Total score the chosen strategy; ProfileHits/ProfileTotal score
	// the plain profile baseline on the same branch.
	Hits, Total               uint64
	ProfileHits, ProfileTotal uint64
}

// NumStates is the chosen machine's size (1 for plain profile).
func (c *Choice) NumStates() int {
	switch c.Kind {
	case KindLoop:
		return c.Loop.NumStates()
	case KindExit:
		return c.Exit.NumStates()
	case KindPath:
		return c.Path.NumStates()
	}
	return 1
}

// Misses is the chosen strategy's mispredicted count.
func (c *Choice) Misses() uint64 { return c.Total - c.Hits }

// Rate is the chosen strategy's misprediction rate in percent.
func (c *Choice) Rate() float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.Misses()) / float64(c.Total)
}

// Gain is the number of additional correct predictions over plain profile,
// rate-normalised to the profile denominator (histories have small warm-up
// differences).
func (c *Choice) Gain() float64 {
	if c.Total == 0 || c.ProfileTotal == 0 {
		return 0
	}
	profRate := float64(c.ProfileHits) / float64(c.ProfileTotal)
	newRate := float64(c.Hits) / float64(c.Total)
	return (newRate - profRate) * float64(c.ProfileTotal)
}

// Options configures strategy selection.
type Options struct {
	// MaxStates bounds every machine's state count (the paper's Table 5
	// sweeps 2..10).
	MaxStates int
	// MaxPathLen caps correlated path lengths (≤ the profile's M;
	// 0 = use the profile's maximum).
	MaxPathLen int
	// DisableLoop/DisableExit/DisablePath turn families off, used by the
	// ablation benchmarks.
	DisableLoop bool
	DisableExit bool
	DisablePath bool
	// PaperCounting scores loop machines with the paper's longest-match
	// pattern counting instead of exact stream replay. The paper's tables
	// use its counting; the measured experiments must use replay, which is
	// what a replicated machine really achieves (see DESIGN.md §5).
	PaperCounting bool
}

// Select chooses the best available strategy for every branch site
// (section 5: "The best available strategy for each branch is chosen"):
// intra-loop machines for branches inside a loop, exit machines for
// branches leaving a loop, correlated machines for every branch, plain
// profile as the floor. Strategies are compared by misprediction rate on
// their own profiled counts.
func Select(prof *profile.Profile, feats []predict.SiteFeatures, opts Options) []Choice {
	if opts.MaxStates < 2 {
		panic(fmt.Sprintf("statemachine: MaxStates %d < 2", opts.MaxStates))
	}
	n := prof.NSites
	out := make([]Choice, n)
	for s := 0; s < n; s++ {
		c := &out[s]
		c.Site = int32(s)
		pp := profile.Pair{Taken: prof.Counts.Taken[s], NotTaken: prof.Counts.NotTaken[s]}
		c.ProfileHits, c.ProfileTotal = pp.Hits(), pp.Total()
		c.Kind = KindProfile
		c.Hits, c.Total = c.ProfileHits, c.ProfileTotal
		if pp.Total() == 0 {
			continue
		}
		bestRate := missRate(c.Hits, c.Total)
		ft := feats[s]
		inLoop := ft.LoopDepth > 0
		exits := ft.TakenExits != ft.ElseExits

		if inLoop && !opts.DisableLoop {
			var lm *LoopMachine
			if opts.PaperCounting {
				lm = BestLoopMachine(prof.Local.Table(int32(s)), prof.Local.K, opts.MaxStates)
			} else {
				lm = BestLoopMachineExact(prof.Local.Table(int32(s)), prof.Local.K, opts.MaxStates, prof.Streams.Site(int32(s)))
			}
			if r := missRate(lm.Hits, lm.Total); lm.Total > 0 && r < bestRate {
				bestRate = r
				c.Kind, c.Loop, c.Hits, c.Total = KindLoop, lm, lm.Hits, lm.Total
				c.Exit, c.Path = nil, nil
			}
		}
		if inLoop && exits && !opts.DisableExit {
			nEx := opts.MaxStates
			if nEx-1 > prof.Local.K {
				nEx = prof.Local.K + 1
			}
			em := NewExitMachine(prof.Local.Table(int32(s)), prof.Local.K, nEx, ft.TakenExits)
			if r := missRate(em.Hits, em.Total); em.Total > 0 && r < bestRate {
				bestRate = r
				c.Kind, c.Exit, c.Hits, c.Total = KindExit, em, em.Hits, em.Total
				c.Loop, c.Path = nil, nil
			}
		}
		if !opts.DisablePath {
			pm := BestPathMachine(prof.Path, int32(s), opts.MaxStates, opts.MaxPathLen)
			if r := missRate(pm.Hits, pm.Total); pm.Total > 0 && r < bestRate {
				bestRate = r
				c.Kind, c.Path, c.Hits, c.Total = KindPath, pm, pm.Hits, pm.Total
				c.Loop, c.Exit = nil, nil
			}
		}
	}
	return out
}

func missRate(hits, total uint64) float64 {
	if total == 0 {
		return 1
	}
	return float64(total-hits) / float64(total)
}

// Aggregate sums choices into an overall (misses, total) pair — the Table 5
// rows.
func Aggregate(choices []Choice) (misses, total uint64) {
	for i := range choices {
		misses += choices[i].Misses()
		total += choices[i].Total
	}
	return misses, total
}
