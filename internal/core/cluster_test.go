package core_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/replicate"
)

// dispatchProfiled profiles a dispatch-loop workload to completion at a
// small scale, as the krallbench indirect experiment does.
func dispatchProfiled(t *testing.T, w bench.Workload) *core.Profiled {
	t.Helper()
	c, err := bench.Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Profile(context.Background(), c.Prog, core.Cell{Scale: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.Rec.Truncated {
		t.Fatal("completion run stopped at a limit")
	}
	return p
}

// TestDispatchCountsAgree holds every dispatch counter to the others on
// the dispatch-loop workloads: the recording's, a walk of the annotated
// original along it, and a counted live run of it all report the same
// executed dispatches, and so many switch events of TermSwitch sites are
// in the recording.
func TestDispatchCountsAgree(t *testing.T) {
	for _, w := range bench.IndirectWorkloads() {
		t.Run(w.Name, func(t *testing.T) {
			p := dispatchProfiled(t, w)
			switches := map[int32]bool{}
			for _, f := range p.Prog.Funcs {
				for _, b := range f.Blocks {
					if b.Term.Op == ir.TermSwitch {
						switches[b.Term.Site] = true
					}
				}
			}
			var events uint64
			for cur := p.Rec.Slab.Cursor(); ; {
				ev, ok := cur.Next()
				if !ok {
					break
				}
				if ev.Switch && switches[ev.Site] {
					events++
				}
			}
			annotated := ir.CloneProgram(p.Prog)
			replicate.Annotate(annotated, p.Preds())
			walked, err := core.Measure(context.Background(), annotated, p.Cell, p.Rec)
			if err != nil {
				t.Fatal(err)
			}
			if !walked.Walked {
				t.Fatal("the annotated original was not walked")
			}
			live, err := core.Count(context.Background(), annotated, p.Cell)
			if err != nil {
				t.Fatal(err)
			}
			if events == 0 || p.Rec.Dispatches != events || walked.Dispatches != events || live.Dispatches != events {
				t.Fatalf("dispatches: %d switch events, recording %d, walk %d, live %d",
					events, p.Rec.Dispatches, walked.Dispatches, live.Dispatches)
			}
		})
	}
}

// TestClusterStage checks the indirect family's stage on the dispatch-loop
// workloads: the verifier accepts every clustering, the clustered program
// keeps the baseline's output with fewer dispatches, and the baseline read
// from the recording is what a live run of the annotated program measures.
func TestClusterStage(t *testing.T) {
	for _, w := range bench.IndirectWorkloads() {
		t.Run(w.Name, func(t *testing.T) {
			p := dispatchProfiled(t, w)
			cl, err := p.Cluster(true)
			if err != nil {
				t.Fatal(err)
			}
			if len(cl.Diags) > 0 || cl.Stats.Clustered == 0 {
				t.Fatalf("clustered %d of %d sites, verifier: %v", cl.Stats.Clustered, cl.Stats.Switches, cl.Diags)
			}
			base := p.Baseline(p.Preds())
			live, err := core.Measure(context.Background(), cl.Baseline, p.Cell, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(live, base) {
				t.Fatalf("recorded baseline %+v, live %+v", base, live)
			}
			clus, err := core.Measure(context.Background(), cl.Clustered, p.Cell, nil)
			if err != nil {
				t.Fatal(err)
			}
			if clus.Checksum != base.Checksum || clus.Prints != base.Prints || clus.Ret != base.Ret {
				t.Fatalf("clustered output %+v, baseline %+v", clus, base)
			}
			if clus.Dispatches >= base.Dispatches || clus.MissReduction(base) <= 0 {
				cm, _ := clus.Effective()
				bm, _ := base.Effective()
				t.Fatalf("clustered %d dispatches and %d effective misses, baseline %d and %d",
					clus.Dispatches, cm, base.Dispatches, bm)
			}
			// The stage verifies only when asked.
			if cl, err := p.Cluster(false); err != nil || cl.Diags != nil {
				t.Fatalf("unverified stage: diagnostics %v, err %v", cl.Diags, err)
			}
		})
	}
}
