package replicate_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/progen"
	"repro/internal/replicate"
	"repro/internal/statemachine"
	"repro/internal/trace"
)

// walkSubject is an original program with its input dataset, the limits
// both runs are held to, and a replicated clone of it.
type walkSubject struct {
	orig, clone *ir.Program
	wseed       int64
	maxBranches uint64
	maxSteps    uint64
}

// newMachine prepares a run of prog on the reference interpreter under
// the subject's dataset and limits.
func (s *walkSubject) newMachine(prog *ir.Program) *interp.Machine {
	m := interp.New(prog)
	m.MaxBranches = s.maxBranches
	m.MaxSteps = s.maxSteps
	if s.wseed != 0 {
		_ = m.SetGlobal("wseed", s.wseed)
	}
	return m
}

// record runs the original once, recording its trace and profile, and
// reports whether the run stopped at a limit.
func (s *walkSubject) record(prof *profile.Profile) (*trace.Slab, bool, error) {
	m := s.newMachine(s.orig)
	slab := trace.NewSlab(int(s.maxBranches))
	m.Rec = slab
	if prof != nil {
		m.Hook = interp.BranchHook(prof)
	}
	_, err := m.Run()
	slab.Seal()
	if err != nil && !errors.Is(err, interp.ErrLimit) {
		return nil, false, err
	}
	return slab, err != nil, nil
}

// live runs prog with the hooks of a counting run and returns what it
// observed in the walk's terms.
func (s *walkSubject) live(prog *ir.Program) (*replicate.WalkResult, error) {
	m := s.newMachine(prog)
	counts := trace.NewCounts(len(prog.BranchSites()))
	m.Hook = interp.BranchHook(counts)
	m.EnableBlockCounts()
	if _, err := m.Run(); err != nil && !errors.Is(err, interp.ErrLimit) {
		return nil, err
	}
	return &replicate.WalkResult{
		Branches: m.Branches, Steps: m.Steps,
		Predicted: m.Predicted, Mispredicted: m.Mispredicted,
		Counts: counts, BlockCounts: m.BlockCounts(),
	}, nil
}

func (s *walkSubject) limits(truncated bool) replicate.WalkLimits {
	return replicate.WalkLimits{MaxBranches: s.maxBranches, MaxSteps: s.maxSteps, Truncated: truncated}
}

// replicateSubject profiles the original, selects machines of at most
// states states and replicates a clone, sequentially or jointly. ok is
// false when the program has no branch to replicate.
func replicateSubject(s *walkSubject, states int, joint bool) (*trace.Slab, bool, bool, error) {
	n := s.orig.NumberBranches(false)
	if n == 0 {
		return nil, false, false, nil
	}
	prof := profile.New(n, profile.Options{})
	slab, truncated, err := s.record(prof)
	if err != nil {
		return nil, false, false, err
	}
	choices := statemachine.Select(prof, predict.Analyze(s.orig), statemachine.Options{
		MaxStates: states, MaxPathLen: 1,
	})
	preds := predict.ProfileStatic(prof.Counts).Preds
	s.clone = ir.CloneProgram(s.orig)
	apply := replicate.ApplyOpts
	if joint {
		apply = replicate.ApplyJoint
	}
	if _, err := apply(s.clone, choices, preds, replicate.Options{MaxSizeFactor: 3}); err != nil {
		return nil, false, false, err
	}
	return slab, truncated, true, nil
}

// catalog compiles the benchmark workloads once; their programs are only
// ever cloned.
var catalog = sync.OnceValues(func() ([]*bench.Compiled, error) {
	var out []*bench.Compiled
	for _, w := range bench.Workloads() {
		c, err := bench.Compile(w)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
})

// checkWalk walks the subject's clone along slab and demands exactly the
// live run's counters, per-site counts and block counts. A fallback is
// accepted only where the live run indeed stopped somewhere the recording
// cannot vouch for.
func checkWalk(t *testing.T, s *walkSubject, slab *trace.Slab, truncated bool) *replicate.WalkResult {
	t.Helper()
	want, err := s.live(s.clone)
	if err != nil {
		t.Fatalf("live run: %v", err)
	}
	got, err := replicate.Walk(context.Background(), s.clone, slab, s.limits(truncated))
	if errors.Is(err, replicate.ErrWalkFallback) {
		stoppedEarly := truncated && slab.Len() < s.maxBranches
		if !stoppedEarly && (s.maxSteps == 0 || want.Steps < s.maxSteps) {
			t.Fatalf("walk fell back, but the recording reached its budget and the live run its stop: %v", err)
		}
		return nil
	}
	if err != nil {
		t.Fatalf("walk of a correct clone failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walk disagrees with the live run:\n walk %d branches %d steps %d/%d\n live %d branches %d steps %d/%d",
			got.Branches, got.Steps, got.Mispredicted, got.Predicted,
			want.Branches, want.Steps, want.Mispredicted, want.Predicted)
	}
	return want
}

// checkMutants mutates one branch of the clone that the live run
// executed, chosen by pick, in two ways that must make the walk fail with
// ErrWalkMismatch. Relabelling the branch's origin fails at its first
// execution. Swapping its successors fails at the next branch when the
// two successors' jump chains reach branches of different origins and
// the branch executed at least twice, so its first execution was not the
// run's last event.
func checkMutants(t *testing.T, s *walkSubject, slab *trace.Slab, truncated bool, live *replicate.WalkResult, pick int) {
	t.Helper()
	type loc struct{ f, b int }
	var executed, swappable []loc
	for fi, f := range s.clone.Funcs {
		for bi, b := range f.Blocks {
			if b.Term.Op != ir.TermBr || live.Counts.Total(b.Term.Site) == 0 {
				continue
			}
			executed = append(executed, loc{fi, bi})
			then, ok1 := nextOrig(b.Term.Then)
			els, ok2 := nextOrig(b.Term.Else)
			if ok1 && ok2 && then != els && live.Counts.Total(b.Term.Site) >= 2 {
				swappable = append(swappable, loc{fi, bi})
			}
		}
	}
	mustMismatch := func(what string, at loc, mutate func(t *ir.Term)) {
		m := ir.CloneProgram(s.clone)
		mutate(&m.Funcs[at.f].Blocks[at.b].Term)
		if _, err := replicate.Walk(context.Background(), m, slab, s.limits(truncated)); !errors.Is(err, replicate.ErrWalkMismatch) {
			t.Fatalf("walk of a clone with %s: err = %v, want ErrWalkMismatch", what, err)
		}
	}
	if len(executed) > 0 {
		mustMismatch("a relabelled origin", executed[pick%len(executed)], func(t *ir.Term) { t.Orig = -1 - t.Orig })
	}
	if len(swappable) > 0 {
		mustMismatch("swapped successors", swappable[pick%len(swappable)], func(t *ir.Term) { t.Then, t.Else = t.Else, t.Then })
	}
}

// nextOrig follows b's chain of jumps to the first conditional branch or
// switch and returns its origin. ok is false when the chain calls a
// function, returns or runs long first, since the next event then need
// not come from the chain's end.
func nextOrig(b *ir.Block) (orig int32, ok bool) {
	for hops := 0; hops < 64; hops++ {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall {
				return 0, false
			}
		}
		switch b.Term.Op {
		case ir.TermJmp:
			b = b.Term.Then
		case ir.TermBr, ir.TermSwitch:
			return b.Term.Orig, true
		default:
			return 0, false
		}
	}
	return 0, false
}

// TestWalkMatchesLiveOnCatalog walks the sequential and joint clones of
// every catalog workload along its recording and compares with live runs.
func TestWalkMatchesLiveOnCatalog(t *testing.T) {
	progs, err := catalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range progs {
		for _, joint := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/joint=%v", c.Workload.Name, joint), func(t *testing.T) {
				s := &walkSubject{orig: ir.CloneProgram(c.Prog), maxBranches: 20_000}
				slab, truncated, _, err := replicateSubject(s, 5, joint)
				if err != nil {
					t.Fatal(err)
				}
				live := checkWalk(t, s, slab, truncated)
				if live == nil {
					t.Fatal("walk fell back on a budget-truncated recording")
				}
				checkMutants(t, s, slab, truncated, live, 7)
			})
		}
	}
}

// TestWalkFallsBack pins the stops a walk cannot reproduce: a recording
// cut below its branch budget, and the step limit reached during the walk
// itself. It also pins cancellation.
func TestWalkFallsBack(t *testing.T) {
	progs, err := catalog()
	if err != nil {
		t.Fatal(err)
	}
	s := &walkSubject{orig: ir.CloneProgram(progs[2].Prog), maxBranches: 20_000}
	slab, _, _, err := replicateSubject(s, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// A recording cut by a step limit below its budget.
	short := &walkSubject{orig: s.orig, maxBranches: 20_000, maxSteps: 30_000}
	cut, truncated, err := short.record(nil)
	if err != nil || !truncated || cut.Len() >= short.maxBranches {
		t.Fatalf("step-limited recording: %d events, truncated %v, err %v", cut.Len(), truncated, err)
	}
	if _, err := replicate.Walk(ctx, s.clone, cut, short.limits(true)); !errors.Is(err, replicate.ErrWalkFallback) {
		t.Fatalf("walk of a step-truncated recording: err = %v, want ErrWalkFallback", err)
	}

	// The step limit reached inside the walk.
	lim := s.limits(true)
	lim.MaxSteps = 30_000
	if _, err := replicate.Walk(ctx, s.clone, slab, lim); !errors.Is(err, replicate.ErrWalkFallback) {
		t.Fatalf("walk past MaxSteps: err = %v, want ErrWalkFallback", err)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := replicate.Walk(cancelled, s.clone, slab, s.limits(true)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled walk: err = %v, want context.Canceled", err)
	}
}

// TestWalkCompleteRun walks a program that returns from main before its
// budget, including recursion and a switch, and checks that a trace
// running on past main's return is a mismatch.
func TestWalkCompleteRun(t *testing.T) {
	const src = `
var acc int;
func fib(n int) int { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); }
func main() int {
    for var i int = 0; i < 40; i = i + 1 {
        switch i % 3 {
        case 0:
            acc = acc + fib(i % 7);
        case 1:
            acc = acc - 1;
        default:
            acc = acc * 2 % 1000;
        }
    }
    print(acc);
    return acc;
}`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	s := &walkSubject{orig: prog}
	slab, truncated, ok, err := replicateSubject(s, 4, false)
	if err != nil || !ok || truncated {
		t.Fatalf("recording: ok %v truncated %v err %v", ok, truncated, err)
	}
	if live := checkWalk(t, s, slab, false); live == nil {
		t.Fatal("walk of a complete run fell back")
	}

	longer := trace.NewSlab(0)
	c := slab.Cursor()
	for ev, ok := c.Next(); ok; ev, ok = c.Next() {
		if ev.Switch {
			longer.RecordSwitch(ev.Site, ev.Outcome)
		} else {
			longer.Record(ev.Site, ev.Taken)
		}
	}
	longer.Record(0, true)
	longer.Seal()
	if _, err := replicate.Walk(context.Background(), s.clone, longer, s.limits(false)); !errors.Is(err, replicate.ErrWalkMismatch) {
		t.Fatalf("trace longer than the run: err = %v, want ErrWalkMismatch", err)
	}
}

// FuzzWalk drives generate (or pick a catalog workload), record, select,
// replicate and walk, and demands that the walk agree with a live run of
// the clone on every counter, per-site count and block count, and that a
// mutated clone make the walk fail.
func FuzzWalk(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(3), false, uint16(4000))
	f.Add(int64(56), uint8(2), uint8(5), true, uint16(20000))
	f.Add(int64(7), uint8(5), uint8(4), false, uint16(0))
	f.Add(int64(424243), uint8(9), uint8(2), true, uint16(9000))
	f.Fuzz(func(t *testing.T, seed int64, pick, states uint8, joint bool, budget uint16) {
		s := &walkSubject{maxBranches: uint64(budget), maxSteps: 2_000_000}
		if pick%2 == 0 {
			prog, err := lang.Compile(progen.Generate(seed, progen.DefaultConfig()))
			if err != nil {
				t.Skip()
			}
			s.orig = prog
		} else {
			progs, err := catalog()
			if err != nil {
				t.Fatal(err)
			}
			s.orig = ir.CloneProgram(progs[int(pick/2)%len(progs)].Prog)
			s.wseed = seed
			if s.maxBranches == 0 {
				s.maxBranches = 1 // the workloads never finish on their own
			}
		}
		s.orig.NumberBranches(true)
		slab, truncated, ok, err := replicateSubject(s, 2+int(states%6), joint)
		if err != nil || !ok {
			t.Skip()
		}
		if live := checkWalk(t, s, slab, truncated); live != nil {
			checkMutants(t, s, slab, truncated, live, int(pick))
		}
	})
}
