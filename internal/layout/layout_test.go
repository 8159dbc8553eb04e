package layout

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/progen"
	"repro/internal/trace"
)

// profileFor runs a program collecting block counts and branch counts.
func profileFor(t *testing.T, prog *ir.Program) ([][]uint64, *trace.Counts) {
	t.Helper()
	n := prog.NumberBranches(false)
	counts := trace.NewCounts(n)
	m := interp.New(prog)
	m.EnableBlockCounts()
	m.Hook = interp.BranchHook(counts)
	m.MaxSteps = 20_000_000
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m.BlockCounts(), counts
}

func TestOrderPutsHotPathAdjacent(t *testing.T) {
	prog, err := lang.Compile(`
func main() int {
    var s int = 0;
    for var i int = 0; i < 10000; i = i + 1 {
        if i % 100 == 0 {
            s = s + 100;   // cold
        } else {
            s = s + 1;     // hot
        }
    }
    return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	prog.NumberBranches(true)
	bc, counts := profileFor(t, prog)
	f := prog.Func("main")
	order := Order(f, FuncWeights(f, bc[f.ID], counts))
	if len(order) != len(f.Blocks) {
		t.Fatalf("order has %d blocks, want %d", len(order), len(f.Blocks))
	}
	seen := map[*ir.Block]bool{}
	for _, b := range order {
		if seen[b] {
			t.Fatalf("block %v appears twice", b)
		}
		seen[b] = true
	}
	if order[0] != f.Entry {
		t.Fatalf("entry not first: %v", order[0])
	}
	// The optimised layout must beat the naive one on taken transfers.
	naive := Evaluate(f, OriginalOrder(f), bc[f.ID], counts)
	ph := Evaluate(f, order, bc[f.ID], counts)
	if ph.TakenTransfers >= naive.TakenTransfers {
		t.Fatalf("PH layout no better: %d vs %d taken", ph.TakenTransfers, naive.TakenTransfers)
	}
	if ph.Transfers != naive.Transfers {
		t.Fatalf("transfer totals differ: %d vs %d", ph.Transfers, naive.Transfers)
	}
}

func TestEvaluateCountsConserve(t *testing.T) {
	prog, err := lang.Compile(`
func main() int {
    var s int = 0;
    for var i int = 0; i < 50; i = i + 1 {
        if i % 3 == 0 { s = s + 1; }
    }
    return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	prog.NumberBranches(true)
	bc, counts := profileFor(t, prog)
	st := EvaluateProgram(prog, bc, counts, false)
	if st.Transfers == 0 || st.TakenTransfers > st.Transfers {
		t.Fatalf("bad stats %+v", st)
	}
	if st.TakenRate() < 0 || st.TakenRate() > 100 {
		t.Fatalf("rate out of range: %v", st.TakenRate())
	}
}

// Property: on random programs, PH layout never increases taken transfers
// versus the naive layout, and orders are always permutations.
func TestPHNeverWorseOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		src := progen.Generate(seed, progen.DefaultConfig())
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		prog.NumberBranches(true)
		n := prog.NumberBranches(false)
		counts := trace.NewCounts(n)
		m := interp.New(prog)
		m.EnableBlockCounts()
		m.Hook = interp.BranchHook(counts)
		m.MaxSteps = 10_000_000
		if _, err := m.Run(); err != nil {
			continue // budget exceeded; fine
		}
		bc := m.BlockCounts()
		naive := EvaluateProgram(prog, bc, counts, false)
		ph := EvaluateProgram(prog, bc, counts, true)
		if ph.Transfers != naive.Transfers {
			t.Fatalf("seed %d: transfer totals differ", seed)
		}
		// PH is a greedy heuristic, not an optimum, but on these CFGs it
		// should never lose badly; allow a 5%% slack.
		if float64(ph.TakenTransfers) > float64(naive.TakenTransfers)*1.05+5 {
			t.Fatalf("seed %d: PH much worse: %d vs %d",
				seed, ph.TakenTransfers, naive.TakenTransfers)
		}
		for _, f := range prog.Funcs {
			order := Order(f, FuncWeights(f, bc[f.ID], counts))
			if len(order) != len(f.Blocks) {
				t.Fatalf("seed %d: order not a permutation in %s", seed, f.Name)
			}
		}
	}
}

func TestFuncWeightsJmpAndBr(t *testing.T) {
	prog, err := lang.Compile(`
func main() int {
    var s int = 0;
    var i int = 0;
    while i < 10 { i = i + 1; s = s + i; }
    return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	prog.NumberBranches(true)
	bc, counts := profileFor(t, prog)
	f := prog.Func("main")
	w := FuncWeights(f, bc[f.ID], counts)
	// The while-head Br: taken 10, not-taken 1.
	var taken, notTaken uint64
	for e, wt := range w {
		if e.From.Term.Op == ir.TermBr {
			if e.Taken {
				taken = wt
			} else {
				notTaken = wt
			}
		}
	}
	if taken != 10 || notTaken != 1 {
		t.Fatalf("branch edge weights = %d/%d, want 10/1", taken, notTaken)
	}
}
