package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestGoldenOutput pins krallcheck's stdout: the example programs, the svm
// dispatch workload (replication and clustering), and the catalog-wide
// static prediction table CI keeps as an artifact. Regenerate with
// make golden after an intended output change.
func TestGoldenOutput(t *testing.T) {
	examples, err := filepath.Glob("../../examples/bl/*.bl")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"examples", examples},
		{"svm", []string{"-workload", "svm"}},
		{"predict_catalog", []string{"-predict", "-budget", "20000"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errs strings.Builder
			if code := run(tc.args, &out, &errs); code != 0 {
				t.Fatalf("exit %d: %s", code, errs.String())
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Fatalf("output differs from %s:\n--- got\n%s--- want\n%s", path, out.String(), want)
			}
		})
	}
}
