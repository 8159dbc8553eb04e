package replicate

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/progen"
	"repro/internal/statemachine"
)

// sameLoopSrc has two replicable branches in one loop: sequential
// replication multiplies their machines, joint replication shares one.
const sameLoopSrc = `
func main() int {
    var s int = 0;
    for var i int = 0; i < 4000; i = i + 1 {
        if i % 2 == 0 { s = s + 1; } else { s = s + 2; }
        if i % 2 == 1 { s = s + 3; } else { s = s + 4; }
    }
    print(s);
    return s;
}`

func jointPipeline(t *testing.T, src string, maxStates int) (*pipelineResult, []statemachine.Choice) {
	t.Helper()
	p := runPipeline(t, src, statemachine.Options{MaxStates: maxStates, MaxPathLen: 1, DisablePath: true})
	return p, p.choices
}

func TestJointBeatsSequentialOnSize(t *testing.T) {
	p, choices := jointPipeline(t, sameLoopSrc, 2)
	var machineBranches int
	for i := range choices {
		if choices[i].Kind != statemachine.KindProfile {
			machineBranches++
		}
	}
	if machineBranches < 2 {
		t.Skipf("only %d machine branches", machineBranches)
	}
	// Sequential.
	seq := ir.CloneProgram(p.orig)
	seqStats, err := Apply(seq, choices, p.preds)
	if err != nil {
		t.Fatal(err)
	}
	// Joint.
	joint := ir.CloneProgram(p.orig)
	jointStats, err := ApplyJoint(joint, choices, p.preds, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if jointStats.InstrsAfter > seqStats.InstrsAfter {
		t.Fatalf("joint (%d instrs) larger than sequential (%d)",
			jointStats.InstrsAfter, seqStats.InstrsAfter)
	}
	// Both must preserve semantics and reach comparable accuracy.
	mSeq := interp.New(seq)
	retSeq, err := mSeq.Run()
	if err != nil {
		t.Fatal(err)
	}
	mJoint := interp.New(joint)
	retJoint, err := mJoint.Run()
	if err != nil {
		t.Fatal(err)
	}
	if retSeq != p.baseRet || retJoint != p.baseRet ||
		mSeq.Checksum != p.baseSum || mJoint.Checksum != p.baseSum {
		t.Fatal("semantics changed")
	}
	seqRate := 100 * float64(mSeq.Mispredicted) / float64(mSeq.Predicted)
	jointRate := 100 * float64(mJoint.Mispredicted) / float64(mJoint.Predicted)
	if jointRate > seqRate+1.0 {
		t.Fatalf("joint rate %.2f%% worse than sequential %.2f%%", jointRate, seqRate)
	}
	// Both in-phase branches are perfectly predictable with 2 states.
	if jointRate > 1.0 {
		t.Fatalf("joint rate %.2f%%, want near 0", jointRate)
	}
}

func TestJointPreservesSemanticsOnRandomPrograms(t *testing.T) {
	for seed := int64(50); seed < 75; seed++ {
		src := progen.Generate(seed, progen.DefaultConfig())
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		nSites := prog.NumberBranches(true)
		if nSites == 0 {
			continue
		}
		prof := profile.New(nSites, profile.Options{})
		ref := interp.New(prog)
		ref.MaxSteps = 10_000_000
		ref.Hook = interp.BranchHook(prof)
		refRet, err := ref.Run()
		if err != nil {
			continue
		}
		feats := predict.Analyze(prog)
		choices := statemachine.Select(prof, feats, statemachine.Options{
			MaxStates: 2 + int(seed%4), MaxPathLen: 1,
		})
		preds := predict.ProfileStatic(prof.Counts).Preds
		clone := ir.CloneProgram(prog)
		st, err := ApplyJoint(clone, choices, preds, Options{MaxSizeFactor: 4, Verify: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !st.Verified {
			t.Fatalf("seed %d: Verify requested but Stats.Verified not set", seed)
		}
		m := interp.New(clone)
		m.MaxSteps = 40_000_000
		got, err := m.Run()
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if got != refRet || m.Checksum != ref.Checksum || m.Branches != ref.Branches {
			t.Fatalf("seed %d: joint replication changed behaviour\n%s", seed, src)
		}
	}
}

func TestJointHandlesNestedLoops(t *testing.T) {
	src := `
func main() int {
    var s int = 0;
    for var i int = 0; i < 300; i = i + 1 {
        if i % 2 == 0 { s = s + 1; }
        for var j int = 0; j < 4; j = j + 1 {
            if j % 2 == 0 { s = s + 2; }
        }
    }
    print(s);
    return s;
}`
	p, choices := jointPipeline(t, src, 3)
	clone := ir.CloneProgram(p.orig)
	st, err := ApplyJoint(clone, choices, p.preds, Options{MaxSizeFactor: 8, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.LoopApplied == 0 {
		t.Fatalf("nothing applied: %+v", st)
	}
	m := interp.New(clone)
	ret, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ret != p.baseRet || m.Checksum != p.baseSum {
		t.Fatal("nested joint replication changed semantics")
	}
}
