package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/profile"
	"repro/internal/progen"
	"repro/internal/ssa"
)

// FuzzStaticSoundness is the differential soundness check for the static
// prediction engine: over generated programs, every branch SCCP proves
// one-way must agree with a recorded interpreter trace — an always-taken
// site may never be observed not-taken, a dead branch may never be observed
// taken, and an unreachable site may never execute. Heuristic probabilities
// carry no such obligation (they are allowed to be wrong); only the Facts
// are claims.
func FuzzStaticSoundness(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed)
	}
	f.Add(int64(56))
	f.Add(int64(123))
	f.Add(int64(4096))
	f.Add(int64(999983))
	f.Fuzz(func(t *testing.T, seed int64) {
		src := progen.Generate(seed, progen.DefaultConfig())
		prog, err := lang.Compile(src)
		if err != nil {
			t.Skip()
		}
		n := prog.NumberBranches(true)
		if n == 0 {
			t.Skip()
		}
		sp, err := ssa.Build(prog)
		if err != nil {
			t.Fatalf("seed %d: ssa.Build: %v", seed, err)
		}
		for _, fn := range sp.Funcs {
			if err := ssa.Verify(fn); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		rep, err := analysis.BuildStaticReport(prog)
		if err != nil {
			t.Fatalf("seed %d: static report failed on a valid program: %v", seed, err)
		}
		if len(rep.Sites) != n {
			t.Fatalf("seed %d: %d sites reported, %d numbered", seed, len(rep.Sites), n)
		}
		prof := profile.New(n, profile.Options{})
		ref := interp.New(prog)
		ref.MaxSteps = 2_000_000
		ref.Hook = interp.BranchHook(prof)
		if _, err := ref.Run(); err != nil {
			t.Skip() // step limit or runtime trap; no trace to compare against
		}
		for i := range rep.Sites {
			s := &rep.Sites[i]
			switch s.Fact {
			case analysis.FactAlwaysTaken:
				if prof.Counts.NotTaken[i] != 0 {
					t.Fatalf("seed %d site %d (%s): proven always-taken, observed not-taken %d times",
						seed, i, s.Func, prof.Counts.NotTaken[i])
				}
			case analysis.FactNeverTaken:
				if prof.Counts.Taken[i] != 0 {
					t.Fatalf("seed %d site %d (%s): proven dead-branch, observed taken %d times",
						seed, i, s.Func, prof.Counts.Taken[i])
				}
			case analysis.FactUnreachable:
				if prof.Counts.Taken[i]+prof.Counts.NotTaken[i] != 0 {
					t.Fatalf("seed %d site %d (%s): proven unreachable, but executed",
						seed, i, s.Func)
				}
			}
		}
	})
}
