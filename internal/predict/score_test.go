package predict

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/trace"
)

// scoreOp is one call a generated stream is recorded with.
type scoreOp struct {
	site, outcome int32
	taken, sw     bool
	n             uint64
}

// randomStream draws a stream that mixes one- and two-byte codes (and a
// few longer ones), repeats that become run markers of 1 and of many, a
// few runs of 2^40, switch escapes and switch runs, with the site range
// widening as the stream goes, so sites first appear mid-stream.
func randomStream(rng *rand.Rand, steps int) []scoreOp {
	ops := make([]scoreOp, 0, steps)
	width := 1
	for len(ops) < steps {
		if rng.Intn(40) == 0 {
			width = min(width*2+rng.Intn(5), 20000)
		}
		op := scoreOp{site: int32(rng.Intn(width)), taken: rng.Intn(3) != 0, n: 1}
		switch r := rng.Intn(20); {
		case r == 0 && len(ops) > 0:
			op = ops[len(ops)-1] // a repeat: a run marker of 1, or longer
		case r == 1:
			op.n = uint64(2 + rng.Intn(50))
		case r == 2 && rng.Intn(10) == 0:
			op.n = 1 << 40
		case r == 3:
			op.sw, op.outcome, op.n = true, int32(rng.Intn(5)), uint64(1+rng.Intn(3))
		}
		ops = append(ops, op)
	}
	return ops
}

// record writes ops into a sealed slab.
func record(ops []scoreOp) *trace.Slab {
	s := trace.NewSlab(0)
	for _, op := range ops {
		if op.sw {
			s.RecordSwitchRun(op.site, op.outcome, op.n)
		} else {
			s.RecordRun(op.site, op.taken, op.n)
		}
	}
	s.Seal()
	return s
}

// feed gives ops to c event by event, except runs too long to expand,
// which go as one RecordRun.
func feed(c trace.Collector, ops []scoreOp) {
	for _, op := range ops {
		switch {
		case op.sw:
			if sc, ok := c.(trace.SwitchCollector); ok {
				sc.RecordSwitchRun(op.site, op.outcome, op.n)
			}
		case op.n > 64:
			c.RecordRun(op.site, op.taken, op.n)
		default:
			for range op.n {
				c.RecordBranch(op.site, op.taken)
			}
		}
	}
}

// TestScorerMatchesCollectors holds Scorer's batch fold, over random
// streams and through both of its inputs — a stored slab's steps and an
// upload's validating pass — to the collectors it stands in for:
// Counts+ProfileResult, Eval over LastDirection and TwoBit, StaticScore
// over a prediction vector shorter than the sites, and MaxSite for its
// site bound. One Scorer is reused across streams and kinds, as the
// service pools it.
func TestScorerMatchesCollectors(t *testing.T) {
	var sc Scorer
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := randomStream(rng, 50+rng.Intn(3000))
		slab := record(ops)
		var stream bytes.Buffer
		if _, err := slab.WriteTo(&stream); err != nil {
			t.Fatal(err)
		}
		var bound trace.MaxSite
		feed(&bound, ops)
		n := bound.N
		preds := make([]ir.Prediction, rng.Intn(n+1))
		for i := range preds {
			preds[i] = []ir.Prediction{ir.PredNone, ir.PredTaken, ir.PredNotTaken}[rng.Intn(3)]
		}
		counts := trace.NewCounts(n)
		last := &Eval{P: NewLastDirection(n)}
		two := &Eval{P: NewTwoBit(n)}
		static := &StaticScore{Preds: preds}
		for _, c := range []trace.Collector{counts, last, two, static} {
			feed(c, ops)
		}
		profile := ProfileResult(counts)
		want := map[ScoreKind][2]uint64{
			ScoreProfile: {profile.Misses, profile.Total},
			ScoreLast:    {last.Misses, last.Total},
			ScoreTwoBit:  {two.Misses, two.Total},
			ScoreStatic:  {static.Mispredicted, static.Predicted},
		}
		for kind, w := range want {
			for _, input := range []string{"slab", "upload"} {
				sc.Reset(kind, preds)
				if input == "slab" {
					steps := slab.Steps()
					sc.Fold(&steps)
				} else {
					a := trace.Adopt(stream.Bytes(), trace.Limits{})
					sc.Fold(&a.Steps)
					if _, err := a.Slab(); err != nil {
						t.Fatal(err)
					}
				}
				if m, total := sc.Result(); m != w[0] || total != w[1] || sc.Sites() != n {
					t.Fatalf("seed %d, kind %d, %s: scorer %d/%d over %d sites, collectors %d/%d over %d",
						seed, kind, input, m, total, sc.Sites(), w[0], w[1], n)
				}
			}
		}
	}
}

// TestTwoBitRunTable holds the scorer's two-bit table to TwoBit.UpdateRun
// for every counter value, both directions and runs of 1, 2, 3, 4 and
// 2^40 outcomes.
func TestTwoBitRunTable(t *testing.T) {
	for c := uint8(0); c < 4; c++ {
		for _, taken := range []bool{false, true} {
			for _, n := range []uint64{1, 2, 3, 4, 1 << 40} {
				p := &TwoBit{ctr: []uint8{c}}
				wantMisses := p.UpdateRun(0, taken, n)
				got, misses := twoBitSteps(c, taken, n)
				if got != p.ctr[0] || misses != wantMisses {
					t.Errorf("counter %d, taken %v, run of %d: table gives %d with %d misses, UpdateRun %d with %d",
						c, taken, n, got, misses, p.ctr[0], wantMisses)
				}
			}
		}
	}
}
