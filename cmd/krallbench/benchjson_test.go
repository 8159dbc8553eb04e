package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/results"
)

// TestBenchJSON runs a small full sweep with -benchjson and validates the
// emitted document: schema tag, engine counters consistent with the
// record-once contract, and one timing entry per printed section in output
// order.
func TestBenchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	args := []string{"-quick", "-budget", "20000", "-all", "-parallel", "1", "-benchjson", path}
	if err := run(args, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	res, err := results.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != "krallbench-results/v1" {
		t.Fatalf("schema = %q", res.Schema)
	}
	if res.Budget != 20000 || !res.Quick || res.Workers != 1 {
		t.Fatalf("config echo wrong: %+v", res)
	}
	if res.TotalSeconds <= 0 || res.BranchesPerSecond <= 0 {
		t.Fatalf("timings not populated: total=%v b/s=%v", res.TotalSeconds, res.BranchesPerSecond)
	}
	// -all records each workload under two dataset seeds and each dispatch
	// workload once to completion (at the indirect experiment's floor of
	// 4 rounds at this budget), nothing more.
	wantRecords, wantEvents := int64(16), int64(16*20000)
	for _, w := range bench.IndirectWorkloads() {
		c, err := bench.Compile(w)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := core.Record(context.Background(), c.Prog, core.Cell{Scale: 4})
		if err != nil {
			t.Fatal(err)
		}
		wantRecords++
		wantEvents += int64(rec.Slab.Len())
	}
	if res.Engine.TraceRecords != wantRecords {
		t.Fatalf("trace_records = %d, want %d", res.Engine.TraceRecords, wantRecords)
	}
	if res.Engine.RecordedEvents != wantEvents {
		t.Fatalf("recorded_events = %d, want %d", res.Engine.RecordedEvents, wantEvents)
	}
	if res.Engine.Replays == 0 || res.Engine.LiveRuns == 0 {
		t.Fatalf("engine counters not populated: %+v", res.Engine)
	}

	wantOrder := []string{
		"table1", "table2", "table3", "table4", "table5", "staticpred",
		"figures", "measured", "crossdataset", "layout", "scope", "joint",
		"indirect", "headline",
	}
	if len(res.Experiments) != len(wantOrder) {
		t.Fatalf("experiments = %d entries, want %d", len(res.Experiments), len(wantOrder))
	}
	for i, e := range res.Experiments {
		if e.ID != wantOrder[i] {
			t.Fatalf("experiment %d = %q, want %q", i, e.ID, wantOrder[i])
		}
		if e.Seconds < 0 {
			t.Fatalf("experiment %s: negative seconds", e.ID)
		}
	}
	// The capability split: live interpreter runs belong exclusively to the
	// execution-bound experiments.
	for _, e := range res.Experiments {
		switch e.ID {
		case "measured", "crossdataset", "layout", "scope", "joint", "indirect":
			if e.TraceSufficient {
				t.Fatalf("%s marked trace-sufficient", e.ID)
			}
		default:
			if !e.TraceSufficient {
				t.Fatalf("%s not marked trace-sufficient", e.ID)
			}
		}
	}
}

// TestForceLiveMatchesReplayStdout pins the engine swap end to end at the
// driver level: -forcelive must not move a single stdout byte, neither in
// the replayed tables nor in the indirect experiment, whose baseline the
// engine reads from the dispatch workloads' recordings.
func TestForceLiveMatchesReplayStdout(t *testing.T) {
	base := []string{"-quick", "-budget", "20000", "-table", "1,3", "-indirect", "-parallel", "1"}
	var replay, live bytes.Buffer
	if err := run(base, &replay, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, base...), "-forcelive"), &live, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replay.Bytes(), live.Bytes()) {
		t.Fatal("-forcelive stdout differs from replay-engine stdout")
	}
}

// TestProfileFlags smoke-tests the pprof/trace plumbing: files must be
// created and non-empty.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	trc := filepath.Join(dir, "trace.out")
	args := []string{"-quick", "-budget", "5000", "-table", "1", "-parallel", "1",
		"-cpuprofile", cpu, "-memprofile", mem, "-trace", trc}
	if err := run(args, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem, trc} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}
