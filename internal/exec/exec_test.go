package exec_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/trace"
)

// src branches 201 times (101 loop tests, 100 ifs) and prints a total that
// depends on the wseed global.
const src = `
var wseed int;
var acc int;

func main() int {
    for var i int = 0; i < 100; i = i + 1 {
        if (i + wseed) % 3 == 0 {
            acc = acc + i;
        }
    }
    print(acc);
    return acc;
}`

// compile builds src; exec's Compile is documented never to fail.
func compile(t *testing.T) exec.Program {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.Interp.Compile(prog)
	if err != nil {
		t.Fatalf("Compile failed: %v", err)
	}
	return p
}

// TestProgramServesManyRuns: one compiled Program starts independent
// machines, each with freshly initialised globals.
func TestProgramServesManyRuns(t *testing.T) {
	p := compile(t)
	run := func(seed int64) (int64, exec.Counters) {
		m := p.NewMachine()
		if seed != 0 {
			if err := m.SetGlobal("wseed", seed); err != nil {
				t.Fatal(err)
			}
		}
		v, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return v, m.Counters()
	}
	v0, c0 := run(0)
	v1, _ := run(1)
	again, c2 := run(0)
	if v0 == v1 {
		t.Fatalf("wseed 0 and 1 both returned %d; the override had no effect", v0)
	}
	if again != v0 || c2 != c0 {
		t.Fatalf("second run of the same program: %d %+v, first %d %+v", again, c2, v0, c0)
	}
	if c0.Branches != 201 || c0.Prints != 1 {
		t.Fatalf("counters %+v, want 201 branches and 1 print", c0)
	}
}

// TestMaxBranchesStops: the run ends with interp.ErrLimit exactly when the
// branch count reaches the budget.
func TestMaxBranchesStops(t *testing.T) {
	p := compile(t)
	m := p.NewMachine()
	m.SetMaxBranches(50)
	if _, err := m.Run(); !errors.Is(err, interp.ErrLimit) {
		t.Fatalf("Run returned %v, want interp.ErrLimit", err)
	}
	if got := m.Counters().Branches; got != 50 {
		t.Fatalf("stopped after %d branches, want 50", got)
	}
}

// TestCancelledContextStops: a cancelled context stops the run with an
// error that wraps context.Canceled.
func TestCancelledContextStops(t *testing.T) {
	p := compile(t)
	m := p.NewMachine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.SetContext(ctx, 0)
	if _, err := m.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want an error wrapping context.Canceled", err)
	}
}

func TestSetGlobalUnknown(t *testing.T) {
	p := compile(t)
	if err := p.NewMachine().SetGlobal("nosuch", 1); err == nil {
		t.Fatal("SetGlobal on an unknown global succeeded")
	}
}

// TestRecAndHookSeeEveryBranch: with both a slab and a hook installed,
// each records every branch, in the same order.
func TestRecAndHookSeeEveryBranch(t *testing.T) {
	p := compile(t)
	m := p.NewMachine()
	slab := trace.NewSlab(0)
	var hooked []trace.Event
	m.SetRec(slab)
	m.SetHook(func(term *ir.Term, taken bool) {
		hooked = append(hooked, trace.Event{Site: term.Site, Taken: taken})
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	slab.Seal()
	recorded := slab.Events()
	if n := m.Counters().Branches; uint64(len(hooked)) != n || uint64(len(recorded)) != n {
		t.Fatalf("%d branches: hook saw %d, slab recorded %d", n, len(hooked), len(recorded))
	}
	if !reflect.DeepEqual(hooked, recorded) {
		t.Fatal("hook and slab saw different event sequences")
	}
}

// TestCountersMirrorInterpreter: Counters reports the interpreter's own
// fields after the same run, static prediction counts included.
func TestCountersMirrorInterpreter(t *testing.T) {
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// Predict every branch taken so Predicted and Mispredicted move.
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			if b.Term.Op == ir.TermBr {
				b.Term.Pred = ir.PredTaken
			}
		}
	}
	p, _ := exec.Interp.Compile(prog)
	m := p.NewMachine()
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	ref := interp.New(prog)
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want := exec.Counters{
		Steps: ref.Steps, Branches: ref.Branches,
		Predicted: ref.Predicted, Mispredicted: ref.Mispredicted,
		Checksum: ref.Checksum, Prints: ref.Prints,
	}
	got := m.Counters()
	if got != want {
		t.Fatalf("Counters %+v, interpreter %+v", got, want)
	}
	if got.Predicted != got.Branches || got.Mispredicted == 0 || got.Checksum == 0 {
		t.Fatalf("counters %+v: want every branch predicted, some mispredicted, a checksum", got)
	}
}
