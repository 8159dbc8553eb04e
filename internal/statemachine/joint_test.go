package statemachine

import (
	"testing"

	"repro/internal/profile"
)

// mkLoopChoice builds a loop-machine Choice from an outcome string.
func mkLoopChoice(t *testing.T, site int32, outcomes string, n int) *Choice {
	t.Helper()
	lh := profile.NewLocalHistory(1, 9)
	st := profile.NewStreams(1)
	for _, ch := range outcomes {
		lh.RecordBranch(0, ch == '1')
		st.RecordBranch(0, ch == '1')
	}
	m := BestLoopMachineExact(lh.Table(0), 9, n, st.Site(0))
	return &Choice{Site: site, Kind: KindLoop, Loop: m, Hits: m.Hits, Total: m.Total}
}

func TestJointRedundantComponentCollapses(t *testing.T) {
	// A branch whose machine predicts taken in every state carries no
	// information: its two states are Moore-equivalent, so the joint
	// machine with an alternating branch minimises from 2x2=4 to 2.
	redundant := &LoopMachine{
		States:    []Pattern{{Bits: 0, Len: 1}, {Bits: 1, Len: 1}},
		PredTaken: []bool{true, true},
		Init:      1,
	}
	a := &Choice{Site: 0, Kind: KindLoop, Loop: redundant}
	b := mkLoopChoice(t, 1, repeat("10", 200), 2)
	jm, err := BuildJoint([]*Choice{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(jm.Branches) != 2 {
		t.Fatalf("branches = %v", jm.Branches)
	}
	if jm.States != 2 {
		t.Fatalf("joint machine has %d states; want 2 (redundant component must merge)", jm.States)
	}
	// Behaviour must match the components: simulate both in lockstep.
	s := jm.Init
	s0, s1 := a.Loop.Init, b.Loop.Init
	for i := 0; i < 50; i++ {
		o := i%2 == 0
		if jm.Predict(s, 0) != a.Loop.PredTaken[s0] {
			t.Fatalf("step %d: joint prediction for branch 0 diverges", i)
		}
		if jm.Predict(s, 1) != b.Loop.PredTaken[s1] {
			t.Fatalf("step %d: joint prediction for branch 1 diverges", i)
		}
		s = jm.Next(s, 0, o)
		s0 = a.Loop.Next(s0, o)
		s = jm.Next(s, 1, o)
		s1 = b.Loop.Next(s1, o)
	}
}

func TestJointLockstepBranchesKeepMixedStates(t *testing.T) {
	// Two branches alternating in lockstep: between the two branch
	// executions the product is in a mixed state, so the joint machine
	// genuinely needs all four states — composition, not information
	// sharing, is what the product models.
	a := mkLoopChoice(t, 0, repeat("10", 200), 2)
	b := mkLoopChoice(t, 1, repeat("10", 200), 2)
	jm, err := BuildJoint([]*Choice{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if jm.States != 4 {
		t.Fatalf("lockstep joint = %d states, want 4", jm.States)
	}
}

func TestJointIndependentBranchesKeepProduct(t *testing.T) {
	// Alternating and period-3 branches share no information: the product
	// cannot shrink below the reachable product size.
	a := mkLoopChoice(t, 0, repeat("10", 300), 2)
	b := mkLoopChoice(t, 1, repeat("110", 300), 4)
	jm, err := BuildJoint([]*Choice{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if jm.States < 4 {
		t.Fatalf("independent branches collapsed to %d states — predictions must have merged wrongly", jm.States)
	}
	// Simulate: predictions always match the components.
	s := jm.Init
	s0, s1 := a.Loop.Init, b.Loop.Init
	for i := 0; i < 200; i++ {
		oa := i%2 == 0
		ob := i%3 != 2
		if jm.Predict(s, 0) != a.Loop.PredTaken[s0] || jm.Predict(s, 1) != b.Loop.PredTaken[s1] {
			t.Fatalf("step %d: joint prediction diverges", i)
		}
		s = jm.Next(s, 0, oa)
		s0 = a.Loop.Next(s0, oa)
		s = jm.Next(s, 1, ob)
		s1 = b.Loop.Next(s1, ob)
	}
}

func TestJointWithExitMachine(t *testing.T) {
	lh := profile.NewLocalHistory(1, 9)
	for i := 0; i < 500; i++ {
		lh.RecordBranch(0, i%5 != 4)
	}
	em := NewExitMachine(lh.Table(0), 9, 5, false)
	exitChoice := &Choice{Site: 2, Kind: KindExit, Exit: em, Hits: em.Hits, Total: em.Total}
	loopChoice := mkLoopChoice(t, 3, repeat("10", 200), 2)
	jm, err := BuildJoint([]*Choice{exitChoice, loopChoice})
	if err != nil {
		t.Fatal(err)
	}
	if jm.States > 10 {
		t.Fatalf("joint of 5x2 machines has %d states", jm.States)
	}
	// Exercise transitions for both branch indices.
	s := jm.Init
	for i := 0; i < 30; i++ {
		s = jm.Next(s, 0, i%5 != 4)
		s = jm.Next(s, 1, i%2 == 0)
		if s < 0 || s >= jm.States {
			t.Fatal("transition escaped state space")
		}
	}
}

func TestJointRejectsPathAndEmpty(t *testing.T) {
	if _, err := BuildJoint(nil); err == nil {
		t.Fatal("empty joint must fail")
	}
	pc := &Choice{Site: 1, Kind: KindPath, Path: &PathMachine{}}
	if _, err := BuildJoint([]*Choice{pc}); err == nil {
		t.Fatal("path machines must be rejected")
	}
}

func TestJointNeverExceedsProduct(t *testing.T) {
	for _, pat := range []string{"10", "110", "1110"} {
		c1 := mkLoopChoice(t, 0, repeat(pat, 300), 4)
		c2 := mkLoopChoice(t, 1, repeat(pat, 300), 4)
		jm, err := BuildJoint([]*Choice{c1, c2})
		if err != nil {
			t.Fatal(err)
		}
		if jm.States > c1.Loop.NumStates()*c2.Loop.NumStates() {
			t.Fatalf("pattern %s: joint %d states exceeds the product", pat, jm.States)
		}
		if jm.Init < 0 || jm.Init >= jm.States {
			t.Fatalf("bad init %d", jm.Init)
		}
	}
}
