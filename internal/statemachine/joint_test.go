package statemachine

import (
	"fmt"
	"math/rand/v2"
	"reflect"
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

// buildJointFmt is the reference BuildJoint is checked against: the product
// built one allocated tuple per (state, branch, outcome) and minimised with
// fmt-formatted signatures, the straightforward construction.
func buildJointFmt(choices []*Choice) *JointMachine {
	type comp struct {
		n, init int
		pred    func(int) bool
		next    func(int, bool) int
	}
	comps := make([]comp, len(choices))
	sites := make([]int32, len(choices))
	for i, c := range choices {
		switch c.Kind {
		case KindLoop:
			comps[i] = comp{c.Loop.NumStates(), c.Loop.Init, func(s int) bool { return c.Loop.PredTaken[s] }, c.Loop.Next}
		case KindExit:
			comps[i] = comp{c.Exit.NumStates(), 0, func(s int) bool { return c.Exit.PredTaken[s] }, c.Exit.Next}
		}
		sites[i] = c.Site
	}
	total := 1
	for _, c := range comps {
		total *= c.n
	}
	decode := func(s int) []int {
		out := make([]int, len(comps))
		for i := len(comps) - 1; i >= 0; i-- {
			out[i] = s % comps[i].n
			s /= comps[i].n
		}
		return out
	}
	encode := func(t []int) int {
		s := 0
		for i, c := range comps {
			s = s*c.n + t[i]
		}
		return s
	}
	preds := make([][]bool, total)
	delta := make([][][2]int, total)
	for s := 0; s < total; s++ {
		tup := decode(s)
		preds[s] = make([]bool, len(comps))
		delta[s] = make([][2]int, len(comps))
		for i, c := range comps {
			preds[s][i] = c.pred(tup[i])
			for d := 0; d < 2; d++ {
				nt := make([]int, len(tup))
				copy(nt, tup)
				nt[i] = c.next(tup[i], d == 1)
				delta[s][i][d] = encode(nt)
			}
		}
	}
	initTup := make([]int, len(comps))
	for i, c := range comps {
		initTup[i] = c.init
	}
	jm := &JointMachine{Branches: sites, States: total, Init: encode(initTup), preds: preds, delta: delta}
	minimizeFmt(jm)
	jm.trimUnreachable()
	return jm
}

// minimizeFmt is Moore partition refinement keyed on fmt-formatted
// signatures.
func minimizeFmt(jm *JointMachine) {
	n := jm.States
	class := make([]int, n)
	sig := map[string]int{}
	for s := 0; s < n; s++ {
		key := fmt.Sprint(jm.preds[s])
		id, ok := sig[key]
		if !ok {
			id = len(sig)
			sig[key] = id
		}
		class[s] = id
	}
	for {
		next := map[string]int{}
		newClass := make([]int, n)
		for s := 0; s < n; s++ {
			key := fmt.Sprint(class[s])
			for bi := range jm.preds[s] {
				key += fmt.Sprintf(",%d:%d", class[jm.delta[s][bi][0]], class[jm.delta[s][bi][1]])
			}
			id, ok := next[key]
			if !ok {
				id = len(next)
				next[key] = id
			}
			newClass[s] = id
		}
		same := true
		for s := 0; s < n; s++ {
			if newClass[s] != class[s] {
				same = false
				break
			}
		}
		class = newClass
		if same {
			break
		}
	}
	nc := 0
	for s := 0; s < n; s++ {
		nc = max(nc, class[s]+1)
	}
	rep := make([]int, nc)
	for i := range rep {
		rep[i] = -1
	}
	for s := 0; s < n; s++ {
		if rep[class[s]] == -1 {
			rep[class[s]] = s
		}
	}
	preds := make([][]bool, nc)
	delta := make([][][2]int, nc)
	for cidx, s := range rep {
		preds[cidx] = jm.preds[s]
		delta[cidx] = make([][2]int, len(jm.preds[s]))
		for bi := range delta[cidx] {
			delta[cidx][bi][0] = class[jm.delta[s][bi][0]]
			delta[cidx][bi][1] = class[jm.delta[s][bi][1]]
		}
	}
	jm.preds, jm.delta, jm.Init, jm.States = preds, delta, class[jm.Init], nc
}

// randomComponent draws a loop choice over a random complete suffix-closed
// set or an exit choice, with random predictions. Predictions are drawn
// from few distinct values half the time, so minimisation has states to
// merge.
func randomComponent(r *rand.Rand, site int32) *Choice {
	pred := func(n int) []bool {
		p := make([]bool, n)
		uniform := r.IntN(2) == 0
		for i := range p {
			p[i] = r.IntN(2) == 0
			if uniform {
				p[i] = p[0]
			}
		}
		return p
	}
	n := 2 + r.IntN(5)
	if r.IntN(3) == 0 {
		em := &ExitMachine{N: n, ExitTaken: r.IntN(2) == 0, PredTaken: pred(n)}
		return &Choice{Site: site, Kind: KindExit, Exit: em}
	}
	states := randomStates(r, n, 1+r.IntN(n-1))
	m := &LoopMachine{States: states, PredTaken: pred(len(states)), Init: r.IntN(2)}
	return &Choice{Site: site, Kind: KindLoop, Loop: m}
}

// TestBuildJointMatchesFmtOracle requires the stride product and the
// varint-keyed minimisation to build, state for state, the machine the
// tuple product and fmt-keyed minimisation build, over random sets of one
// to four loop and exit components. (A lone component matters: with two or
// more, a state's own predictions reappear in its successors' classes, so
// only single-component machines catch a signature that drops them.)
func TestBuildJointMatchesFmtOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(15, 1))
	for trial := 0; trial < 400; trial++ {
		choices := make([]*Choice, 1+r.IntN(4))
		for i := range choices {
			choices[i] = randomComponent(r, int32(i))
		}
		got, err := BuildJoint(choices)
		if err != nil {
			t.Fatal(err)
		}
		want := buildJointFmt(choices)
		if got.States != want.States || got.Init != want.Init ||
			!reflect.DeepEqual(got.preds, want.preds) || !reflect.DeepEqual(got.delta, want.delta) {
			t.Fatalf("trial %d: BuildJoint %d states (init %d), oracle %d states (init %d)\npreds %v\nwant  %v\ndelta %v\nwant  %v",
				trial, got.States, got.Init, want.States, want.Init, got.preds, want.preds, got.delta, want.delta)
		}
	}
}

func BenchmarkBuildJoint(b *testing.B) {
	r := rand.New(rand.NewPCG(4, 4))
	choices := make([]*Choice, 4)
	for i := range choices {
		states := randomStates(r, 5, 4)
		pred := make([]bool, len(states))
		for j := range pred {
			pred[j] = r.IntN(2) == 0
		}
		choices[i] = &Choice{Site: int32(i), Kind: KindLoop, Loop: &LoopMachine{States: states, PredTaken: pred}}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildJoint(choices); err != nil {
			b.Fatal(err)
		}
	}
}
