package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestBadArguments: malformed flags, stray arguments and a cluster run
// without -throughput are refused before anything starts.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-budget", "lots"},
		{"stray"},
		{"-nodes", "2"},
	} {
		var out, errs bytes.Buffer
		if err := run(args, &out, &errs); err == nil {
			t.Errorf("run %q succeeded; want an error", args)
		}
		if out.Len() != 0 {
			t.Errorf("run %q printed %q to stdout", args, out.String())
		}
	}
}

// TestServeStabilitySweep drives the default mode against an in-process
// kralld: every endpoint once for compress, the upload of a locally
// recorded trace and the indirect family included, each answered and
// counted in the summary.
func TestServeStabilitySweep(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run([]string{"-serve", "-workloads", "compress", "-budget", "2000", "-repeats", "1", "-quiet"}, &out, &errs); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errs.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if !regexp.MustCompile(`^9 requests in [0-9.]+s \(0 retried after 429, [0-9]+ response bytes\)$`).MatchString(lines[0]) {
		t.Fatalf("summary line %q", lines[0])
	}
	want := map[string]string{"analyze": "1", "machines": "1", "profile": "1", "replicate": "4", "score": "2"}
	for _, l := range lines[1:] {
		f := strings.Fields(l)
		if len(f) != 3 || f[2] != "ok" || want[f[0]] != f[1] {
			t.Errorf("endpoint line %q", l)
		}
		delete(want, f[0])
	}
	if len(want) != 0 {
		t.Errorf("no line for %v in:\n%s", want, out.String())
	}
}
