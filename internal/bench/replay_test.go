package bench

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/trace"
)

// renderTraceSufficient renders everything the replay engine is allowed to
// serve from recorded traces: Tables 1-5 (Table 2 is the fill-rate table)
// plus the figure curves and headline.
func renderTraceSufficient(t *testing.T, s *Suite) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(s.Table1().Render())
	b.WriteString(s.Table2().Render())
	b.WriteString(s.Table3().Render())
	b.WriteString(s.Table4().Render())
	b.WriteString(s.Table5().Render())
	figs := s.Figures()
	b.WriteString(FigureTable(figs).Render())
	for _, f := range figs {
		b.WriteString(RenderFigure(f))
	}
	b.WriteString(RenderHeadlines(Headlines(figs)))
	return b.String()
}

// TestReplayMatchesLive is the replay engine's core equivalence property:
// a suite driven by recorded traces must render byte-identical results to
// one that interprets every experiment live (ForceLive), at both worker
// counts. Collectors only observe the (site, taken) stream, the recording
// hook captures it exactly, and per-collector replay preserves each
// collector's event order, so no output byte may move.
func TestReplayMatchesLive(t *testing.T) {
	cfg := QuickConfig()
	cfg.Budget = 30_000

	render := func(forceLive bool, parallel int) string {
		cfg.ForceLive = forceLive
		cfg.Parallel = parallel
		s, err := NewSuite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return renderTraceSufficient(t, s)
	}

	live := render(true, 1)
	for _, p := range []int{1, 8} {
		if got := render(false, p); got != live {
			t.Fatalf("parallel=%d: replay-driven output differs from live\nlive %d bytes, replay %d bytes, first divergence at byte %d",
				p, len(live), len(got), firstDiff(live, got))
		}
	}
}

// TestReplayMatchesLiveMeasured extends the equivalence to the measured
// experiments, whose rows the trace engine serves without running a
// transformed program: the profile-baseline row of MeasuredReplication
// (scored over the trace instead of annotating and running a clone), the
// cross-dataset counts, and every replicated clone — the replica on both
// datasets, read by the measured, cross-dataset, layout and scope tables,
// and both joint-table clones — walked along the recorded trace. At one
// and at eight workers the output must be byte-identical to ForceLive,
// which runs every clone live.
func TestReplayMatchesLiveMeasured(t *testing.T) {
	cfg := QuickConfig()
	cfg.Budget = 30_000

	render := func(forceLive bool, parallel int) string {
		cfg.ForceLive = forceLive
		cfg.Parallel = parallel
		s, err := NewSuite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, section := range []func() (*Table, error){
			func() (*Table, error) { return s.MeasuredReplication(5) },
			s.CrossDataset, s.LayoutTable, s.ScopeTable, s.JointTable,
		} {
			tab, err := section()
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(tab.Render())
		}
		st := s.Engine().Stats()
		if !forceLive && st.LiveRuns != 0 {
			t.Fatalf("parallel=%d: measured sections ran %d clones live, want every one walked", parallel, st.LiveRuns)
		}
		return b.String()
	}

	live := render(true, 1)
	for _, p := range []int{1, 8} {
		if got := render(false, p); got != live {
			t.Fatalf("parallel=%d: trace-served measured rows differ from live\nfirst divergence at byte %d", p, firstDiff(live, got))
		}
	}
}

// TestRecordOncePerWorkload asserts the engine counters that back the
// record-once claim: serving every trace-sufficient experiment costs
// exactly one recording per workload and zero live interpreter runs;
// adding the cross-dataset experiment costs exactly one more recording per
// workload (the alternate dataset) plus the replica's two walks, one per
// dataset, and still no live run; the other replica-served experiments
// cost nothing more.
func TestRecordOncePerWorkload(t *testing.T) {
	cfg := QuickConfig()
	cfg.Budget = 20_000
	cfg.Parallel = 1
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderTraceSufficient(t, s)

	n := int64(len(Workloads()))
	st := s.Engine().Stats()
	if st.TraceRecords != n {
		t.Fatalf("trace-sufficient experiments recorded %d traces, want %d (one per workload)", st.TraceRecords, n)
	}
	if st.LiveRuns != 0 {
		t.Fatalf("trace-sufficient experiments used %d live runs, want 0", st.LiveRuns)
	}
	if st.Replays == 0 || st.ReplayedEvents == 0 {
		t.Fatalf("no replays counted: %+v", st)
	}

	if _, err := s.CrossDataset(); err != nil {
		t.Fatal(err)
	}
	st = s.Engine().Stats()
	if st.TraceRecords != 2*n {
		t.Fatalf("after cross-dataset: %d recordings, want %d (two seeds per workload)", st.TraceRecords, 2*n)
	}
	if st.LiveRuns != 0 || st.Walks != 2*n { // replicated clone on both datasets
		t.Fatalf("after cross-dataset: %d live runs and %d walks, want 0 and %d", st.LiveRuns, st.Walks, 2*n)
	}

	// The other execution-bound sections at the replica's size read the
	// same replica: with cross-dataset they cost 2n walks in all, one
	// replica walk per workload plus its walk on the alternate dataset.
	replicaSections(t, s)
	st = s.Engine().Stats()
	if st.TraceRecords != 2*n || st.LiveRuns != 0 || st.Walks != 2*n {
		t.Fatalf("measured, cross-dataset, layout and scope: %d recordings, %d live runs and %d walks, want %d, 0 and %d",
			st.TraceRecords, st.LiveRuns, st.Walks, 2*n, 2*n)
	}

	// Repeating any trace-sufficient or replica-served experiment must not
	// interpret again.
	s.Table1()
	s.Table4()
	replicaSections(t, s)
	if _, err := s.CrossDataset(); err != nil {
		t.Fatal(err)
	}
	if st2 := s.Engine().Stats(); st2.TraceRecords != st.TraceRecords || st2.LiveRuns != st.LiveRuns || st2.Walks != st.Walks {
		t.Fatalf("repeated sections re-interpreted: before %+v, after %+v", st, st2)
	}
}

// replicaSections renders the measured (at the replica's size), layout and
// scope experiments.
func replicaSections(t *testing.T, s *Suite) {
	t.Helper()
	if _, err := s.MeasuredReplication(replicaStates); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LayoutTable(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ScopeTable(); err != nil {
		t.Fatal(err)
	}
}

// TestForceLiveCounters pins the other side of the capability split: a
// ForceLive suite must never record or replay.
func TestForceLiveCounters(t *testing.T) {
	cfg := QuickConfig()
	cfg.Budget = 20_000
	cfg.Parallel = 1
	cfg.ForceLive = true
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Table1()
	st := s.Engine().Stats()
	if st.TraceRecords != 0 || st.Replays != 0 || st.Walks != 0 {
		t.Fatalf("ForceLive suite touched the trace engine: %+v", st)
	}
	if st.LiveRuns != int64(len(Workloads())) {
		t.Fatalf("ForceLive profiling used %d live runs, want %d", st.LiveRuns, len(Workloads()))
	}
}

// TestArtifactMatchesProfile cross-checks the artifact against the
// replayed profile: the recorded event count must equal both the machine
// counter and the per-site totals accumulated by replay.
func TestArtifactMatchesProfile(t *testing.T) {
	cfg := QuickConfig()
	cfg.Budget = 25_000
	cfg.Parallel = 1
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Data {
		if d.Art == nil {
			t.Fatalf("%s: no artifact", d.C.Workload.Name)
		}
		if d.Art.Trace.Len() != d.Branches {
			t.Fatalf("%s: trace has %d events, machine counted %d branches",
				d.C.Workload.Name, d.Art.Trace.Len(), d.Branches)
		}
		if got := d.Prof.Counts.TotalAll(); got != d.Branches {
			t.Fatalf("%s: replayed counts total %d, want %d", d.C.Workload.Name, got, d.Branches)
		}
		if d.Branches != cfg.Budget {
			t.Fatalf("%s: budget-truncated run recorded %d events, want %d",
				d.C.Workload.Name, d.Branches, cfg.Budget)
		}
	}
}

// TestLiveFanoutMatchesSolo: with several live collectors, runProgram
// leaves each in the state it reaches as the run's only collector, and
// each sees branch and switch events in their interleaved order.
func TestLiveFanoutMatchesSolo(t *testing.T) {
	prog, err := lang.Compile(`
var seed int;
var acc int;
func main() int {
    seed = 2024;
    for var i int = 0; i < 3000; i = i + 1 {
        seed = (seed * 1103515245 + 12345) & 1073741823;
        var op int = seed % 5;
        if op > 2 {
            acc = acc + 1;
        }
        switch op {
        case 0:
            acc = acc + 3;
        case 1:
            acc = acc * 2 % 65536;
        default:
            acc = acc - 1;
        }
    }
    return acc;
}`)
	if err != nil {
		t.Fatal(err)
	}
	n := prog.NumberBranches(false)
	cfg := RunConfig{Budget: 1 << 20}
	fresh := func() []trace.Collector {
		return []trace.Collector{trace.NewCounts(n), &trace.Log{}, trace.NewTargetCounts(n)}
	}
	together := fresh()
	if _, err := runProgram(prog, cfg, together...); err != nil {
		t.Fatal(err)
	}
	for i, solo := range fresh() {
		if _, err := runProgram(prog, cfg, solo); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(solo, together[i]) {
			t.Fatalf("collector %d (%T) diverges when it shares the run", i, solo)
		}
	}
	switches := 0
	for _, ev := range together[1].(*trace.Log).Events {
		if ev.Switch {
			switches++
		}
	}
	if switches != 3000 {
		t.Fatalf("log saw %d switch events, want 3000", switches)
	}
}
