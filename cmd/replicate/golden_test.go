package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestGoldenOutput pins replicate's stdout on the compress workload: the
// plain pipeline, the per-branch report, the joint driver, and the
// verified joint transform. Regenerate with make golden after an intended
// output change.
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"compress", nil},
		{"compress_v", []string{"-v"}},
		{"compress_joint", []string{"-joint"}},
		{"compress_check_joint", []string{"-check", "-joint"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-workload", "compress", "-budget", "40000"}, tc.args...)
			code, out, errs := runCmd(t, args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errs)
			}
			checkGolden(t, filepath.Join("testdata", tc.name+".golden"), out)
		})
	}
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
