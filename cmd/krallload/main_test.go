package main

import (
	"bytes"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/results"
)

// TestBadArguments: malformed flags, stray arguments, a cluster run
// without -throughput or without the kralld binary, and a batch too small
// to differ from single posts are refused before anything starts.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-budget", "lots"},
		{"stray"},
		{"-nodes", "2"},
		{"-nodes", "2", "-throughput"},
		{"-serve", "-throughput", "-batch", "1"},
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

// TestServeSmoke runs the service's CI smoke as CI does: every endpoint
// for the whole catalog at the default budget and repeats, against an
// in-process kralld, then checks the /metrics snapshot it leaves behind.
func TestServeSmoke(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.txt")
	var out, errs bytes.Buffer
	if err := run([]string{"-serve", "-quiet", "-metrics-out", metrics}, &out, &errs); err != nil {
		t.Fatalf("smoke: %v\nstdout: %s\nstderr: %s", err, out.String(), errs.String())
	}
	body, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("kralld_")) {
		t.Fatalf("metrics snapshot has no kralld_ series:\n%s", body)
	}
	if !bytes.Contains(body, []byte("\nkrallcheck_failed_total 0\n")) || bytes.Contains(body, []byte("\nkrallcheck_verified_total 0\n")) {
		t.Fatalf("want verified replicates and no failed ones:\n%s", body)
	}
}

// TestServeThroughput: -throughput against an in-process kralld prints
// the speedup line and writes the service section.
func TestServeThroughput(t *testing.T) {
	doc := filepath.Join(t.TempDir(), "bench.json")
	var out, errs bytes.Buffer
	if err := run([]string{"-serve", "-throughput", "-workloads", "compress", "-budget", "2000", "-requests", "16", "-quiet", "-benchjson", doc}, &out, &errs); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errs.String())
	}
	if !regexp.MustCompile(`(?m)^throughput: batch=8 speedup [0-9.]+x`).MatchString(out.String()) {
		t.Fatalf("no throughput line in:\n%s", out.String())
	}
	got, err := results.Read(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Service == nil || got.Service.Single.Requests != 16 || got.Service.Batch.Requests != 16 {
		t.Fatalf("service section %+v", got.Service)
	}
}

// TestNodes runs -nodes 2 against a freshly built kralld: one node, then
// a two-node cluster (three kralld processes in all), and checks the
// cluster section it writes.
func TestNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds kralld and starts three processes")
	}
	kralld := filepath.Join(t.TempDir(), "kralld")
	if out, err := exec.Command("go", "build", "-o", kralld, "repro/cmd/kralld").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	doc := filepath.Join(t.TempDir(), "bench.json")
	var out, errs bytes.Buffer
	if err := run([]string{"-throughput", "-nodes", "2", "-kralld", kralld, "-workloads", "compress", "-budget", "2000", "-requests", "16", "-quiet", "-benchjson", doc}, &out, &errs); err != nil {
		t.Fatalf("run: %v\nstdout: %s\nstderr: %s", err, out.String(), errs.String())
	}
	got, err := results.Read(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Service == nil || got.Service.Cluster == nil || got.Service.Cluster.Nodes != 2 {
		t.Fatalf("service section %+v", got.Service)
	}
	if c := got.Service.Cluster; c.SingleNode.Requests != 16 || c.MultiNode.Requests != 16 {
		t.Fatalf("cluster section %+v", c)
	}
}

// TestNodeExitFailsFast: a node that exits at start fails the run at once
// with its exit status, instead of after the ten-second readiness wait.
func TestNodeExitFailsFast(t *testing.T) {
	script := filepath.Join(t.TempDir(), "kralld")
	if err := os.WriteFile(script, []byte("#!/bin/sh\nexit 3\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var out, errs bytes.Buffer
	err := run([]string{"-throughput", "-nodes", "2", "-kralld", script, "-quiet"}, &out, &errs)
	if err == nil || !strings.Contains(err.Error(), "exit status 3") {
		t.Fatalf("run: got error %v, want one naming exit status 3", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("run took %v to fail, want under 2s", d)
	}
}

// TestSpawnClosesListener: a node that cannot start leaves no listener
// open behind it.
func TestSpawnClosesListener(t *testing.T) {
	l, url, err := loopback()
	if err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "no-kralld")
	if _, err := spawnNode(missing, l, url, nil, 1, t.TempDir(), true, nil); err == nil {
		t.Fatal("spawning a missing binary succeeded")
	}
	if _, err := net.Dial("tcp", l.Addr().String()); err == nil {
		t.Fatal("listener still accepts connections after the failed spawn")
	}
}
