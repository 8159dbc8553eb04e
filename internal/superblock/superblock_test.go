package superblock

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/progen"
	"repro/internal/trace"
)

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

func TestFormHotLoopTrace(t *testing.T) {
	prog, err := lang.Compile(`
func main() int {
    var s int = 0;
    for var i int = 0; i < 10000; i = i + 1 {
        if i % 100 == 0 { s = s + 50; } else { s = s + 1; }
    }
    return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	prog.NumberBranches(true)
	bc, counts := profileFor(t, prog)
	f := prog.Func("main")
	fm := Form(f, bc[f.ID], counts)

	// Every block placed exactly once.
	seen := map[*ir.Block]int{}
	for _, tr := range fm.Traces {
		if len(tr.Blocks) == 0 {
			t.Fatal("empty trace")
		}
		for _, b := range tr.Blocks {
			seen[b]++
		}
	}
	if len(seen) != len(f.Blocks) {
		t.Fatalf("placed %d of %d blocks", len(seen), len(f.Blocks))
	}
	for b, n := range seen {
		if n != 1 {
			t.Fatalf("block %v placed %d times", b, n)
		}
	}
	// The hot loop must form a multi-block trace (head→hot-arm→join→post).
	longest := 0
	for _, tr := range fm.Traces {
		if len(tr.Blocks) > longest {
			longest = len(tr.Blocks)
		}
	}
	if longest < 3 {
		t.Fatalf("longest trace %d blocks; hot loop not chained", longest)
	}
	st := Measure(fm, bc[f.ID], counts)
	if st.Instrs == 0 || st.Exits == 0 {
		t.Fatalf("bad stats %+v", st)
	}
	if st.AvgDynamicLength() < 5 {
		t.Fatalf("dynamic trace length %.1f implausibly short", st.AvgDynamicLength())
	}
}

func TestBiasedBranchesLengthenTraces(t *testing.T) {
	// The same loop with a 99%-biased branch must yield longer dynamic
	// traces than with a 50/50 branch.
	mk := func(mod int) Stats {
		src := `
func main() int {
    var s int = 0;
    for var i int = 0; i < 20000; i = i + 1 {
        if i % MOD == 0 { s = s + 50; } else { s = s + 1; }
    }
    return s;
}`
		srcs := ""
		for _, ch := range src {
			srcs += string(ch)
		}
		srcs = replaceMOD(srcs, mod)
		prog, err := lang.Compile(srcs)
		if err != nil {
			t.Fatal(err)
		}
		prog.NumberBranches(true)
		bc, counts := profileFor(t, prog)
		return MeasureProgram(prog, bc, counts)
	}
	biased := mk(100)
	even := mk(2)
	if biased.AvgDynamicLength() <= even.AvgDynamicLength() {
		t.Fatalf("biased %.1f <= even %.1f", biased.AvgDynamicLength(), even.AvgDynamicLength())
	}
}

func replaceMOD(s string, mod int) string {
	out := ""
	for i := 0; i < len(s); i++ {
		if i+3 <= len(s) && s[i:i+3] == "MOD" {
			out += itoa(mod)
			i += 2
			continue
		}
		out += string(s[i])
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// Property: formations on random programs are always complete partitions
// and measure without anomalies.
func TestFormOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		prog, err := lang.Compile(progen.Generate(seed, progen.DefaultConfig()))
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
			continue
		}
		bc := m.BlockCounts()
		for _, f := range prog.Funcs {
			fm := Form(f, bc[f.ID], counts)
			placed := 0
			for _, tr := range fm.Traces {
				placed += len(tr.Blocks)
			}
			if placed != len(f.Blocks) {
				t.Fatalf("seed %d %s: %d placed of %d", seed, f.Name, placed, len(f.Blocks))
			}
		}
		st := MeasureProgram(prog, bc, counts)
		if st.Exits == 0 {
			t.Fatalf("seed %d: no trace exits (returns must count)", seed)
		}
	}
}
