package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenCases pins the five paper tables at a fixed small scale. The
// budget is large enough that every strategy row is populated but small
// enough to keep the whole test under a few seconds.
var goldenCases = []struct {
	name string
	args []string
}{
	{"table1", []string{"-quick", "-budget", "20000", "-table", "1"}},
	{"table2", []string{"-quick", "-budget", "20000", "-table", "2"}},
	{"table3", []string{"-quick", "-budget", "20000", "-table", "3"}},
	{"table4", []string{"-quick", "-budget", "20000", "-table", "4"}},
	{"table5", []string{"-quick", "-budget", "20000", "-table", "5"}},
	{"staticpred", []string{"-quick", "-budget", "20000", "-staticpred"}},
	{"indirect", []string{"-quick", "-budget", "20000", "-indirect"}},
}

// TestGolden compares krallbench's stdout against committed golden files.
// Progress and timing go to stderr, so stdout must be byte-stable across
// runs, machines, and worker counts. Regenerate with:
//
//	go test ./cmd/krallbench -run TestGolden -update
func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", tc.name+".txt")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from %s (run with -update after intended changes)\ngot:\n%s\nwant:\n%s",
					path, out.Bytes(), want)
			}
		})
	}
}

// TestGoldenParallelInvariance re-renders one golden case at several
// worker counts: the committed file must match regardless of -parallel.
func TestGoldenParallelInvariance(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "table1.txt"))
	if err != nil {
		t.Skipf("golden file missing: %v", err)
	}
	for _, p := range []int{1, 4, 8} {
		var out bytes.Buffer
		args := append([]string{}, goldenCases[0].args...)
		args = append(args, "-parallel", fmt.Sprint(p))
		if err := run(args, &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("-parallel %d output differs from golden table1.txt", p)
		}
	}
}

// TestRunBadFlag makes sure flag errors surface as errors, not exits, so
// the golden harness can't be wedged by a typo. -backend is gone with the
// compiled backend and must be unknown too.
func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-backend", "vm"}} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Fatalf("%q: expected error for unknown flag", args)
		}
	}
}

// TestRunRejectsStrayArguments checks that a positional argument is a
// usage error: the flag package stops at the first one, so the flags after
// it would otherwise be silently dropped.
func TestRunRejectsStrayArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-quick", "stray", "-table", "1"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), `unexpected arguments ["stray" "-table" "1"]`) {
		t.Fatalf("got error %v, want an unexpected-arguments error", err)
	}
	if out.Len() != 0 || strings.Contains(errOut.String(), "profiling") {
		t.Fatalf("ran before rejecting the arguments\nstdout: %s\nstderr: %s", out.String(), errOut.String())
	}
}

// TestRunRejectsTooFewStates checks that -states below 2 is a usage error
// reported before any workload is profiled, not a panic in the machine
// search.
func TestRunRejectsTooFewStates(t *testing.T) {
	for _, n := range []string{"1", "0", "-3"} {
		var out, errOut bytes.Buffer
		err := run([]string{"-quick", "-budget", "2000", "-measured", "-states", n}, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), "-states "+n) {
			t.Fatalf("-states %s: got error %v, want a -states usage error", n, err)
		}
		if out.Len() != 0 || strings.Contains(errOut.String(), "profiling") {
			t.Fatalf("-states %s: ran before rejecting the flag\nstdout: %s\nstderr: %s", n, out.String(), errOut.String())
		}
	}
}
