package replicate

import (
	"errors"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/progen"
	"repro/internal/statemachine"
)

// TestReplicationPreservesSemanticsOnRandomPrograms is the pipeline's main
// property test: for randomly generated programs, profiling + machine
// selection + code replication must keep the program's observable
// behaviour (checksum, print count, return value) bit-identical, the
// transformed program must validate, and its measured misprediction must
// not collapse. Machine sizes and path options are varied with the seed.
func TestReplicationPreservesSemanticsOnRandomPrograms(t *testing.T) {
	cfg := progen.DefaultConfig()
	for seed := int64(0); seed < 40; seed++ {
		src := progen.Generate(seed, cfg)
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		nSites := prog.NumberBranches(true)
		if nSites == 0 {
			continue
		}

		// Reference run + profile.
		prof := profile.New(nSites, profile.Options{})
		ref := interp.New(prog)
		ref.MaxSteps = 10_000_000
		ref.Hook = interp.BranchHook(prof)
		refRet, err := ref.Run()
		if errors.Is(err, interp.ErrLimit) {
			continue // too long for a unit test; other seeds cover it
		}
		if err != nil {
			t.Fatalf("seed %d: reference run: %v\n%s", seed, err, src)
		}

		feats := predict.Analyze(prog)
		maxStates := 2 + int(seed%7)
		choices := statemachine.Select(prof, feats, statemachine.Options{
			MaxStates:  maxStates,
			MaxPathLen: 1 + int(seed%2),
		})
		preds := predict.ProfileStatic(prof.Counts).Preds

		clone := ir.CloneProgram(prog)
		opts := Options{Verify: true}
		if seed%3 == 0 {
			opts.MaxSizeFactor = 2
		}
		st, err := ApplyOpts(clone, choices, preds, opts)
		if err != nil {
			t.Fatalf("seed %d: apply: %v\n%s", seed, err, src)
		}
		if !st.Verified {
			t.Fatalf("seed %d: Verify requested but Stats.Verified not set", seed)
		}
		if err := clone.Validate(); err != nil {
			t.Fatalf("seed %d: transformed invalid: %v", seed, err)
		}

		m := interp.New(clone)
		m.MaxSteps = 40_000_000
		got, err := m.Run()
		if err != nil {
			t.Fatalf("seed %d: transformed run: %v\n%s", seed, err, src)
		}
		if got != refRet {
			t.Fatalf("seed %d: return value changed %d -> %d\n%s", seed, refRet, got, src)
		}
		if m.Checksum != ref.Checksum || m.Prints != ref.Prints {
			t.Fatalf("seed %d: observable behaviour changed (checksum %d->%d prints %d->%d)\n%s",
				seed, ref.Checksum, m.Checksum, ref.Prints, m.Prints, src)
		}
		if m.Branches != ref.Branches {
			t.Fatalf("seed %d: executed branch count changed %d -> %d (replication must not add dynamic branches)",
				seed, ref.Branches, m.Branches)
		}
	}
}

// TestReplicationIdempotentBranchCounts checks that replication preserves
// the dynamic branch count even when applied twice with different
// selections (machines over machine copies).
func TestReplicationStacksSafely(t *testing.T) {
	src := progen.Generate(123, progen.DefaultConfig())
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	n := prog.NumberBranches(true)
	if n == 0 {
		t.Skip("no branches in this seed")
	}
	prof := profile.New(n, profile.Options{})
	ref := interp.New(prog)
	ref.MaxSteps = 10_000_000
	ref.Hook = interp.BranchHook(prof)
	refRet, err := ref.Run()
	if err != nil {
		t.Skip("seed too long")
	}
	feats := predict.Analyze(prog)
	preds := predict.ProfileStatic(prof.Counts).Preds

	clone := ir.CloneProgram(prog)
	ch1 := statemachine.Select(prof, feats, statemachine.Options{MaxStates: 2, MaxPathLen: 1})
	if _, err := ApplyOpts(clone, ch1, preds, Options{MaxSizeFactor: 4}); err != nil {
		t.Fatal(err)
	}
	// Second application over the transformed program: re-profile it
	// (sites renumbered) and transform again.
	n2 := clone.NumberBranches(false)
	prof2 := profile.New(n2, profile.Options{})
	m2 := interp.New(clone)
	m2.MaxSteps = 40_000_000
	m2.Hook = interp.BranchHook(prof2)
	if _, err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	// Reset Orig to current sites so the second Select/Apply treats the
	// transformed program as the new original.
	clone.NumberBranches(true)
	feats2 := predict.Analyze(clone)
	ch2 := statemachine.Select(prof2, feats2, statemachine.Options{MaxStates: 3, MaxPathLen: 1})
	preds2 := predict.ProfileStatic(prof2.Counts).Preds
	if _, err := ApplyOpts(clone, ch2, preds2, Options{MaxSizeFactor: 2}); err != nil {
		t.Fatal(err)
	}
	final := interp.New(clone)
	final.MaxSteps = 80_000_000
	got, err := final.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != refRet || final.Checksum != ref.Checksum {
		t.Fatal("stacked replication changed semantics")
	}
}
