package lang_test

import (
	"errors"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/progen"
)

// Both sides of the differential run are bounded; a run that reaches
// either side's bound proves nothing and is skipped. The evaluator runs
// only when the interpreter finished. The bounds let every catalog
// workload but prolog finish at wscale 1.
const (
	diffMaxSteps = 8_000_000  // interpreter instructions
	diffMaxEval  = 12_000_000 // evaluator statements plus expressions
	diffMaxDepth = 200        // call depth, on both sides
)

// diffScale is the wscale a catalog program runs at, so it ends within
// the bounds.
const diffScale = 1

// semanticSeeds are hand-written programs at the edges of the rules the
// evaluator and the interpreter must agree on.
var semanticSeeds = []string{
	`func main() int { var m int = -9223372036854775807 - 1; print(m / -1); print(m % -1); print(-7 / 2); return -7 % 3; }`,
	`func main() int { var x int = 1; print(x << 64); print(x << 65); print(-8 >> 1); return x << -1; }`,
	`func main() int { var z int = 0; print(1); return 1 / z; }`,
	`func main() int { var z int = 0; print(1); return 1 % z; }`,
	`func main() int { var f float = 1.0e300; return int(f * f); }`,
	`func main() int { var f float = 0.0; return int(f / f); }`,
	`func main() int { return int(-3.99) + int(float(7) / 2.0); }`,
	`var a [4]int; func main() int { var i int = 4; a[i] = print1(); return 0; } func print1() int { print(1); return 1; }`,
	`var a [4]int; func main() int { return a[-1]; }`,
	`var n int; func t() bool { n = n + 1; print(n); return true; } func f() bool { n = n + 10; print(n); return false; }
func main() int { if f() && t() { print(0); } if t() || f() { print(2); } var b bool = f() || t() && f(); print(int(b)); return n; }`,
	`func main() int { var s int; for var i int = 0; i < 10; i = i + 1 { if i % 3 == 0 { continue; } if i == 8 { break; } s = s + i; } return s; }`,
	`func main() int { var s int; for var i int = 0; i < 10; i = i + 1 { s = s + 1; if s % 2 == 0 { continue; } i = i + 1; } return s; }`,
	`func main() int { var s int; var i int; while true { i = i + 1; switch i % 4 { case 0: continue; case 1: s = s + 1; case 3: break; default: s = s + 100; } if i > 20 { break; } } return s; }`,
	`func main() int { var s int; for var i int = 0; i < 3; i = i + 1 { var x int; var y float; x = x + i; s = s + x; print(int(y)); } return s; }`,
	`var x int = 5; func main() int { var x int = x + 1; { var x int = x * 2; print(x); } return x; }`,
	`func f(p int) int { var p int = p + 1; return p; } func main() int { return f(4); }`,
	`func main() float { return min(0.0, -0.0) + max(1.5, 2.5) + abs(-2.0) + sqrt(2.0); }`,
	`func main() int { print(abs(-9223372036854775807 - 1)); print(min(3, -2)); return max(3, -2); }`,
	`var g float = -1.5; var h bool = true; func main() bool { return g < 0.0 == h; }`,
	`func fib(n int) int { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); } func main() int { return fib(15); }`,
	`func deep(n int) int { return deep(n + 1); } func main() int { return deep(0); }`,
	`func v() { print(7); } func main() { v(); return; }`,
	`func main() int { var f float = 2.0; var i int = 3; print(float(i) * f); print(int(true)); return int(f) << i; }`,
}

// FuzzEvalMatchesInterp is the front end's independent check: every
// program that compiles must do on the interpreter what the reference
// evaluator says its source does. Both must return the same value, print
// the same checksum the same number of times, and trap (with the same
// message) or not trap alike.
func FuzzEvalMatchesInterp(f *testing.F) {
	for _, w := range append(bench.Workloads(), bench.IndirectWorkloads()...) {
		f.Add(w.Source)
	}
	for seed := int64(0); seed < 64; seed++ {
		f.Add(progen.Generate(seed, progen.DefaultConfig()))
	}
	for _, src := range semanticSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lang.Compile(src)
		if err != nil {
			return
		}
		file, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("Parse refused what Compile accepted: %v", err)
		}
		if main := prog.Func("main"); main == nil || main.NParams != 0 {
			return
		}
		m := interp.New(prog)
		m.MaxSteps = diffMaxSteps
		m.MaxDepth = diffMaxDepth
		ev := newRefEval(file, diffMaxEval, diffMaxDepth)
		if prog.Global("wscale") != nil {
			if m.SetGlobal("wscale", diffScale) != nil || ev.setGlobal("wscale", diffScale) != nil {
				return // an array named wscale
			}
		}
		got, ierr := m.Run()
		if errors.Is(ierr, interp.ErrLimit) {
			return
		}
		want, eerr := ev.Run()
		if errors.Is(eerr, errEvalBound) {
			return
		}
		var rt *interp.RuntimeError
		var trap *evalTrap
		itrapped, etrapped := errors.As(ierr, &rt), errors.As(eerr, &trap)
		switch {
		case itrapped != etrapped:
			t.Fatalf("trap mismatch: evaluator %v, interpreter %v", eerr, ierr)
		case etrapped && trap.msg != rt.Msg:
			t.Fatalf("trap message: evaluator %q, interpreter %q", trap.msg, rt.Msg)
		case (eerr == nil) != (ierr == nil):
			t.Fatalf("error mismatch: evaluator %v, interpreter %v", eerr, ierr)
		case eerr == nil && got != want:
			t.Fatalf("return value: interpreter %d, evaluator %d", got, want)
		}
		if m.Prints != ev.Prints || m.Checksum != ev.Checksum {
			t.Fatalf("prints: interpreter %d (checksum %#x), evaluator %d (checksum %#x)",
				m.Prints, m.Checksum, ev.Prints, ev.Checksum)
		}
	})
}
