package predict

import (
	"strings"
	"testing"
)

func TestCombiningTracksBetterComponent(t *testing.T) {
	// Branch 0 alternates (two-level wins, 2-bit loses); branch 1 is
	// near-always-taken with rare flips (2-bit fine). The combiner must
	// approach the better component on each.
	mk := func() *Combining {
		return NewCombining(NewTwoBit(4), NewTwoLevel(PaperTwoLevel()), 4)
	}
	comb := &Eval{P: mk()}
	twoBit := &Eval{P: NewTwoBit(4)}
	twoLevel := &Eval{P: NewTwoLevel(PaperTwoLevel())}
	t0, t1 := int32(0), int32(1)
	x := uint32(3)
	for i := 0; i < 20000; i++ {
		o0 := i%2 == 0
		x = x*1664525 + 1013904223
		o1 := x%64 != 0
		for _, e := range []*Eval{comb, twoBit, twoLevel} {
			e.RecordBranch(t0, o0)
			e.RecordBranch(t1, o1)
		}
	}
	best := twoBit.Rate()
	if twoLevel.Rate() < best {
		best = twoLevel.Rate()
	}
	if comb.Rate() > best+1.0 {
		t.Fatalf("combining %.2f%% much worse than best component %.2f%%", comb.Rate(), best)
	}
	// It must clearly beat the worse component (2-bit dies on alternation).
	if comb.Rate() > twoBit.Rate()-5 {
		t.Fatalf("combining %.2f%% did not beat 2-bit %.2f%%", comb.Rate(), twoBit.Rate())
	}
}

func TestCombiningResetAndName(t *testing.T) {
	c := NewCombining(NewLastDirection(2), NewTwoBit(2), 2)
	for i := 0; i < 50; i++ {
		c.Update(0, true)
	}
	if !c.Predict(0) {
		t.Fatal("did not learn taken")
	}
	c.Reset()
	if c.Predict(0) {
		t.Fatal("reset did not clear state")
	}
	if !strings.Contains(c.Name(), "combining") {
		t.Fatalf("name: %s", c.Name())
	}
}

func TestCombiningChooserOnlyTrainsOnDisagreement(t *testing.T) {
	a := NewLastDirection(1)
	b := NewLastDirection(1)
	c := NewCombining(a, b, 1)
	before := c.chooser[0]
	// Identical components always agree: the chooser must never move.
	for i := 0; i < 100; i++ {
		c.Update(0, i%3 == 0)
	}
	if c.chooser[0] != before {
		t.Fatal("chooser moved despite permanent agreement")
	}
}
