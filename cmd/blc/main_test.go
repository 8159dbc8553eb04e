package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

const prog = `
var n int = 5;

func main() int {
    var s int = 0;
    for var i int = 0; i < n; i = i + 1 {
        s = s + i;
    }
    print(s);
    return s;
}`

func writeProg(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.bl")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runBlc(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunProgram(t *testing.T) {
	path := writeProg(t, prog)
	code, out, _ := runBlc(t, path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "result: 10") {
		t.Fatalf("output: %s", out)
	}
}

func TestSetOverride(t *testing.T) {
	path := writeProg(t, prog)
	code, out, _ := runBlc(t, "-set", "n=10", path)
	if code != 0 || !strings.Contains(out, "result: 45") {
		t.Fatalf("exit %d output %s", code, out)
	}
}

func TestDump(t *testing.T) {
	path := writeProg(t, prog)
	code, out, _ := runBlc(t, "-dump", path)
	if code != 0 || !strings.Contains(out, "func main") || !strings.Contains(out, "br r") {
		t.Fatalf("dump: %s", out)
	}
}

func TestStatsAndBudget(t *testing.T) {
	path := writeProg(t, prog)
	code, out, _ := runBlc(t, "-stats", "-set", "n=1000000", "-budget", "100", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "budget reached") || !strings.Contains(out, "branches: 100") {
		t.Fatalf("output: %s", out)
	}
}

func TestTraceFile(t *testing.T) {
	path := writeProg(t, prog)
	tracePath := filepath.Join(t.TempDir(), "t.bltrace")
	code, _, errs := runBlc(t, "-trace", tracePath, path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	slab, err := trace.ReadSlab(f, trace.DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if slab.Len() != 6 { // 5 taken + 1 exit
		t.Fatalf("trace has %d events", slab.Len())
	}
}

func TestErrors(t *testing.T) {
	path := writeProg(t, prog)
	if code, _, _ := runBlc(t); code != 2 {
		t.Fatal("missing file arg must exit 2")
	}
	if code, _, errs := runBlc(t, "/nonexistent.bl"); code != 1 || errs == "" {
		t.Fatal("missing file must exit 1")
	}
	bad := writeProg(t, "func main() int { return x; }")
	if code, _, errs := runBlc(t, bad); code != 2 || !strings.Contains(errs, "undefined") {
		t.Fatalf("compile error must exit 2 with a diagnostic: %s", errs)
	}
	if code, _, _ := runBlc(t, "-set", "garbage", path); code != 1 {
		t.Fatal("bad -set must exit 1")
	}
	if code, _, _ := runBlc(t, "-set", "n=abc", path); code != 1 {
		t.Fatal("bad -set value must exit 1")
	}
	if code, _, _ := runBlc(t, "-set", "zz=1", path); code != 1 {
		t.Fatal("unknown global must exit 1")
	}
	trap := writeProg(t, "func main() int { return 1 / 0; }")
	if code, _, errs := runBlc(t, trap); code != 1 || !strings.Contains(errs, "division") {
		t.Fatalf("trap must surface: %s", errs)
	}
}

func TestCheckFlag(t *testing.T) {
	path := writeProg(t, prog)
	code, out, errs := runBlc(t, "-check", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	if !strings.Contains(out, "ok") {
		t.Fatalf("check output: %s", out)
	}
	// -check must not execute the program.
	if strings.Contains(out, "result:") {
		t.Fatalf("-check ran the program: %s", out)
	}
}
