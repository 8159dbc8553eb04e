package core_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/replicate"
	"repro/internal/statemachine"
)

// TestRunMatchesRecordedPipeline holds Run, which folds its profile as the
// program runs and measures its clone live, to the recorded pipeline
// (Profile, then a verified Replicate that walks the clone) on every
// catalog and dispatch-loop workload: the same profile, choices and
// baseline, and a live clone that scores and sums exactly as the walk
// reports.
func TestRunMatchesRecordedPipeline(t *testing.T) {
	const budget = 20000
	for _, w := range append(bench.Workloads(), bench.IndirectWorkloads()...) {
		t.Run(w.Name, func(t *testing.T) {
			c, err := bench.Compile(w)
			if err != nil {
				t.Fatal(err)
			}
			cell := core.Cell{Budget: budget}.Fill(c.Prog, 0, core.FullScale)
			got, err := core.Run(c.Prog, core.Config{Budget: budget, Scale: cell.Scale})
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.Profile(context.Background(), c.Prog, cell)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Replicate(context.Background(), statemachine.Options{MaxStates: 5, MaxPathLen: 1},
				replicate.ApplyOpts, replicate.Options{MaxSizeFactor: 3, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if !want.Replica.Walked || got.Replica.Walked {
				t.Fatalf("walked: recorded pipeline %t, Run %t", want.Replica.Walked, got.Replica.Walked)
			}
			if !reflect.DeepEqual(got.Profile.Counts, want.Profile.Counts) ||
				!reflect.DeepEqual(got.Profile.Targets, want.Profile.Targets) {
				t.Fatal("Run's profile differs from the recorded one")
			}
			if !reflect.DeepEqual(got.Choices, want.Choices) {
				t.Fatal("Run's choices differ from the recorded pipeline's")
			}
			if !reflect.DeepEqual(got.Baseline, want.Baseline) {
				t.Fatalf("baseline %+v, recorded pipeline %+v", got.Baseline, want.Baseline)
			}
			g, r := got.Replica, want.Replica
			if g.Predicted != r.Predicted || g.Mispredicted != r.Mispredicted || g.Checksum != r.Checksum {
				t.Fatalf("live clone %d/%d sum %d, walked clone %d/%d sum %d",
					g.Mispredicted, g.Predicted, g.Checksum, r.Mispredicted, r.Predicted, r.Checksum)
			}
			if g.Counts != nil || g.BlockCounts != nil {
				t.Fatal("Run's live clone collected counts nobody reads")
			}
		})
	}
}
