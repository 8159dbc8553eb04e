package analysis_test

import (
	"errors"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/progen"
	"repro/internal/replicate"
	"repro/internal/statemachine"
)

// FuzzVerify drives the whole pipeline — generate, profile, select, replicate
// — with verification enabled and fails if the verifier ever rejects a
// legitimate transformation (a false positive) or the driver panics. Inputs
// that don't survive the pipeline for unrelated reasons (step limits,
// degenerate programs) are skipped.
func FuzzVerify(f *testing.F) {
	f.Add(int64(0), uint8(2), false)
	f.Add(int64(56), uint8(2), true)
	f.Add(int64(123), uint8(5), false)
	f.Add(int64(7), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, states uint8, joint bool) {
		src := progen.Generate(seed, progen.DefaultConfig())
		prog, err := lang.Compile(src)
		if err != nil {
			t.Skip()
		}
		n := prog.NumberBranches(true)
		if n == 0 {
			t.Skip()
		}
		prof := profile.New(n, profile.Options{})
		ref := interp.New(prog)
		ref.MaxSteps = 2_000_000
		ref.Hook = interp.BranchHook(prof)
		if _, err := ref.Run(); err != nil {
			t.Skip()
		}
		feats := predict.Analyze(prog)
		choices := statemachine.Select(prof, feats, statemachine.Options{
			MaxStates:  2 + int(states%6),
			MaxPathLen: 1 + int(states%2),
		})
		preds := predict.ProfileStatic(prof.Counts).Preds
		clone := ir.CloneProgram(prog)
		opts := replicate.Options{Verify: true, MaxSizeFactor: 3}
		var st *replicate.Stats
		if joint {
			st, err = replicate.ApplyJoint(clone, choices, preds, opts)
		} else {
			st, err = replicate.ApplyOpts(clone, choices, preds, opts)
		}
		if err != nil {
			if errors.Is(err, replicate.ErrVerify) {
				t.Fatalf("verifier rejected legitimate replication (seed %d states %d joint %v): %v",
					seed, states, joint, err)
			}
			t.Skip()
		}
		if !st.Verified {
			t.Fatalf("Verify requested but Stats.Verified not set (seed %d)", seed)
		}
	})
}
