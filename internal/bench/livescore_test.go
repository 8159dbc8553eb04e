package bench

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/progen"
	"repro/internal/replicate"
)

// TestScoreVectorMatchesLive holds predict.ScoreVector, the one score of a
// fixed prediction vector, to the interpreter's live tally, which counts
// each executed branch against its annotation. Every catalog and dispatch
// workload and progen seeds 0-19 are recorded on one cell; then each of
// three vectors — the profile majority, Ball–Larus and always-taken — is
// annotated onto a clone that runs live on the same cell. The run's
// Predicted and Mispredicted must equal ScoreVector over the recording's
// per-site counts.
func TestScoreVectorMatchesLive(t *testing.T) {
	ctx := context.Background()
	type target struct {
		name string
		prog *ir.Program
	}
	var targets []target
	for _, w := range append(Workloads(), IndirectWorkloads()...) {
		c, err := Compile(w)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, target{w.Name, c.Prog})
	}
	for seed := int64(0); seed < 20; seed++ {
		prog, err := lang.Compile(progen.Generate(seed, progen.DefaultConfig()))
		if err != nil {
			t.Fatalf("progen seed %d: %v", seed, err)
		}
		targets = append(targets, target{fmt.Sprintf("progen/%d", seed), prog})
	}
	cell := core.Cell{Budget: 50_000}
	for _, tg := range targets {
		p, err := core.Profile(ctx, tg.prog, cell)
		if err != nil {
			t.Fatalf("%s: %v", tg.name, err)
		}
		counts := p.Prof.Counts
		for _, v := range []*predict.Static{
			predict.ProfileStatic(counts),
			predict.BallLarus(p.Feats),
			predict.AlwaysTaken(len(p.Feats)),
		} {
			clone := ir.CloneProgram(p.Prog)
			replicate.Annotate(clone, v.Preds)
			live, err := core.Measure(ctx, clone, cell, nil)
			if err != nil {
				t.Fatalf("%s, %s: %v", tg.name, v.Strategy, err)
			}
			misses, predicted := predict.ScoreVector(v.Preds, counts)
			if live.Mispredicted != misses || live.Predicted != predicted {
				t.Errorf("%s, %s: live run mispredicts %d of %d, ScoreVector %d of %d",
					tg.name, v.Strategy, live.Mispredicted, live.Predicted, misses, predicted)
			}
			// Each vector predicts every two-way site, so every branch
			// event is scored.
			if predicted != counts.TotalAll() {
				t.Errorf("%s, %s: scored %d of %d branch events", tg.name, v.Strategy, predicted, counts.TotalAll())
			}
		}
	}
}
