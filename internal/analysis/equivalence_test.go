package analysis_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/progen"
	"repro/internal/replicate"
	"repro/internal/statemachine"
)

// periodicSrc has a strongly periodic branch inside a hot loop, so machine
// selection always replicates it: a deterministic target for mutation tests.
const periodicSrc = `
func main() int {
    var s int = 0;
    for var i int = 0; i < 4000; i = i + 1 {
        if i % 2 == 0 { s = s + 1; } else { s = s + 2; }
    }
    print(s);
    return s;
}`

type pipeOut struct {
	prog    *ir.Program
	choices []statemachine.Choice
	preds   []ir.Prediction
}

// pipe compiles src and runs the profiling half of the pipeline.
func pipe(t *testing.T, src string, maxStates int) pipeOut {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	n := prog.NumberBranches(true)
	if n == 0 {
		t.Fatal("no branch sites")
	}
	prof := profile.New(n, profile.Options{})
	ref := interp.New(prog)
	ref.MaxSteps = 10_000_000
	ref.Hook = interp.BranchHook(prof)
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	feats := predict.Analyze(prog)
	choices := statemachine.Select(prof, feats, statemachine.Options{MaxStates: maxStates, MaxPathLen: 1})
	preds := predict.ProfileStatic(prof.Counts).Preds
	return pipeOut{prog: prog, choices: choices, preds: preds}
}

// applyVerified replicates p.prog (on a clone) with verification on and
// requires a clean pass.
func applyVerified(t *testing.T, p pipeOut, joint bool) (*ir.Program, *replicate.Stats) {
	t.Helper()
	clone := ir.CloneProgram(p.prog)
	opts := replicate.Options{Verify: true}
	var st *replicate.Stats
	var err error
	if joint {
		st, err = replicate.ApplyJoint(clone, p.choices, p.preds, opts)
	} else {
		st, err = replicate.ApplyOpts(clone, p.choices, p.preds, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !st.Verified || analysis.HasErrors(st.Diags) {
		t.Fatalf("verification not clean: %v", st.Diags)
	}
	if st.LoopApplied == 0 {
		t.Fatal("nothing replicated; mutation target missing")
	}
	return clone, st
}

// reverify re-runs the verifier against the snapshot retained in st, after
// the caller mutated prog.
func reverify(p pipeOut, prog *ir.Program, st *replicate.Stats) []analysis.Diagnostic {
	return analysis.Verify(st.Orig, prog, st.Prov, p.choices, p.preds)
}

// TestVerifyCleanOnGeneratedPrograms is the framework's own property test:
// both replication drivers, run over generated programs with verification
// enabled, must come back clean (the drivers fail on ErrVerify, so a plain
// error check suffices).
func TestVerifyCleanOnGeneratedPrograms(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		src := progen.Generate(seed, progen.DefaultConfig())
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		n := prog.NumberBranches(true)
		if n == 0 {
			continue
		}
		prof := profile.New(n, profile.Options{})
		ref := interp.New(prog)
		ref.MaxSteps = 10_000_000
		ref.Hook = interp.BranchHook(prof)
		if _, err := ref.Run(); err != nil {
			continue
		}
		feats := predict.Analyze(prog)
		choices := statemachine.Select(prof, feats, statemachine.Options{
			MaxStates: 2 + int(seed%4), MaxPathLen: 1 + int(seed%2),
		})
		preds := predict.ProfileStatic(prof.Counts).Preds
		for _, joint := range [2]bool{false, true} {
			clone := ir.CloneProgram(prog)
			opts := replicate.Options{Verify: true, MaxSizeFactor: 4}
			var st *replicate.Stats
			if joint {
				st, err = replicate.ApplyJoint(clone, choices, preds, opts)
			} else {
				st, err = replicate.ApplyOpts(clone, choices, preds, opts)
			}
			if err != nil {
				t.Fatalf("seed %d joint=%v: %v", seed, joint, err)
			}
			if !st.Verified {
				t.Fatalf("seed %d joint=%v: Verified not set", seed, joint)
			}
		}
	}
}

// TestVerifyCatchesWrongSuccessor corrupts one successor edge of the
// replicated program — swapping a branch's arms so each points at a copy of
// the wrong original block — and requires the verifier to reject it. The
// mutant still passes ir.Validate (both targets are in-function and
// distinct): only the equivalence check can see the provenance mismatch.
func TestVerifyCatchesWrongSuccessor(t *testing.T) {
	p := pipe(t, periodicSrc, 2)
	prog, st := applyVerified(t, p, false)

	var mf *ir.Func
	var mb *ir.Block
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			if b.Term.Op != ir.TermBr || b.Term.Then == b.Term.Else {
				continue
			}
			to, okT := st.Prov.Origin(b.Term.Then)
			eo, okE := st.Prov.Origin(b.Term.Else)
			if okT && okE && to != eo {
				mf, mb = f, b
				break
			}
		}
		if mb != nil {
			break
		}
	}
	if mb == nil {
		t.Fatal("no mutable branch found")
	}
	// Each arm now lands on a copy of the wrong original successor.
	mb.Term.Then, mb.Term.Else = mb.Term.Else, mb.Term.Then
	ir.MarkUnreachableDead(mf)
	if err := prog.Validate(); err != nil {
		t.Fatalf("mutant must stay structurally valid, got: %v", err)
	}
	diags := reverify(p, prog, st)
	d := analysis.FirstError(diags)
	if d == nil {
		t.Fatalf("wrong-successor mutation not caught:\n%v", diags)
	}
	if !strings.Contains(d.Msg, "successor") && !strings.Contains(d.Msg, "edge") {
		t.Fatalf("unexpected diagnostic for wrong successor: %s", d)
	}
}

// TestVerifyCatchesFlippedPrediction flips one annotated static prediction
// and requires the verifier to reject the program.
func TestVerifyCatchesFlippedPrediction(t *testing.T) {
	p := pipe(t, periodicSrc, 2)
	prog, st := applyVerified(t, p, false)

	var mb *ir.Block
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			if b.Term.Op == ir.TermBr && b.Term.Pred != ir.PredNone {
				mb = b
				break
			}
		}
		if mb != nil {
			break
		}
	}
	if mb == nil {
		t.Fatal("no annotated branch found")
	}
	if mb.Term.Pred == ir.PredTaken {
		mb.Term.Pred = ir.PredNotTaken
	} else {
		mb.Term.Pred = ir.PredTaken
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("mutant must stay structurally valid, got: %v", err)
	}
	diags := reverify(p, prog, st)
	d := analysis.FirstError(diags)
	if d == nil {
		t.Fatalf("flipped prediction not caught:\n%v", diags)
	}
	if !strings.Contains(d.Msg, "prediction") {
		t.Fatalf("unexpected diagnostic for flipped prediction: %s", d)
	}
}

// TestVerifyCatchesBodyEdit rewrites one instruction immediate: replication
// may only duplicate code, never change it.
func TestVerifyCatchesBodyEdit(t *testing.T) {
	p := pipe(t, periodicSrc, 2)
	prog, st := applyVerified(t, p, false)

	var mb *ir.Block
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			if len(b.Instrs) > 0 {
				mb = b
				break
			}
		}
		if mb != nil {
			break
		}
	}
	if mb == nil {
		t.Fatal("no instruction to mutate")
	}
	mb.Instrs[0].Imm += 41
	diags := reverify(p, prog, st)
	d := analysis.FirstError(diags)
	if d == nil || !strings.Contains(d.Msg, "instruction") {
		t.Fatalf("instruction edit not caught:\n%v", diags)
	}
}

// TestVerifyCatchesJointMutation repeats the successor corruption on the
// joint driver's output.
func TestVerifyCatchesJointMutation(t *testing.T) {
	p := pipe(t, periodicSrc, 2)
	prog, st := applyVerified(t, p, true)

	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			if b.Term.Op != ir.TermBr || b.Term.Then == b.Term.Else {
				continue
			}
			to, okT := st.Prov.Origin(b.Term.Then)
			eo, okE := st.Prov.Origin(b.Term.Else)
			if okT && okE && to != eo {
				b.Term.Then = b.Term.Else
				ir.MarkUnreachableDead(f)
				if analysis.FirstError(reverify(p, prog, st)) == nil {
					t.Fatal("joint successor mutation not caught")
				}
				return
			}
		}
	}
	t.Fatal("no mutable branch found")
}

// TestApplyRejectsCorruptMachine drives ErrVerify end to end: a machine
// whose per-state prediction disagrees with what replication wires in makes
// the driver itself fail with ErrVerify.
func TestApplyRejectsCorruptMachine(t *testing.T) {
	p := pipe(t, periodicSrc, 2)
	var loop *statemachine.LoopMachine
	for i := range p.choices {
		if p.choices[i].Kind == statemachine.KindLoop {
			loop = p.choices[i].Loop
		}
	}
	if loop == nil {
		t.Skip("no loop machine selected")
	}
	clone := ir.CloneProgram(p.prog)
	st, err := replicate.ApplyOpts(clone, p.choices, p.preds, replicate.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the machine after the fact and re-verify: the recorded
	// authority now disagrees with the wired predictions.
	for i := range loop.PredTaken {
		loop.PredTaken[i] = !loop.PredTaken[i]
	}
	if analysis.FirstError(reverify(p, clone, st)) == nil {
		t.Fatal("corrupted machine not caught on re-verification")
	}
	for i := range loop.PredTaken {
		loop.PredTaken[i] = !loop.PredTaken[i]
	}
	// An impossible machine score fails the driver itself with ErrVerify
	// (the Machines well-formedness pass runs as part of Verify).
	for i := range p.choices {
		if p.choices[i].Kind == statemachine.KindLoop {
			p.choices[i].Hits = p.choices[i].Total + 1
		}
	}
	clone2 := ir.CloneProgram(p.prog)
	_, err = replicate.ApplyOpts(clone2, p.choices, p.preds, replicate.Options{Verify: true})
	if !errors.Is(err, replicate.ErrVerify) {
		t.Fatalf("got %v, want ErrVerify", err)
	}
}
