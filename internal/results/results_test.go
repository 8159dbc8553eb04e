package results

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// full is a document with every section populated.
func full() *Document {
	phase := func(batch int) Phase {
		return Phase{
			BatchSize: batch, HTTPPosts: 10, Requests: 10 * batch, Branches: 12345,
			Seconds: 1.5, RequestsPerSecond: 6.67, BranchesPerSecond: 8230,
			Latency: []EndpointLatency{{Endpoint: "replicate", P50Millis: 1.25, P99Millis: 9.5}},
		}
	}
	return &Document{
		Schema: Schema, Budget: 20000, Quick: true, Workers: 2,
		TotalSeconds: 3.25, BranchesPerSecond: 1e6,
		Engine: Engine{Jobs: 7, JobSeconds: 2.5, CacheHits: 3, CacheMisses: 4, TraceRecords: 2,
			RecordedEvents: 40000, Replays: 5, ReplayedEvents: 100000, LiveRuns: 1},
		Experiments: []Section{{ID: "table1", TraceSufficient: true, Seconds: 0.5}, {ID: "joint", Seconds: 1}},
		Service: &Service{
			Workloads: []string{"compress", "cc"}, Budget: 20000, Concurrency: 4, Rounds: 3,
			Single: phase(1), Batch: phase(8), Speedup: 2.5,
			Cluster: &Cluster{Nodes: 4, PerNodeMaxRPS: 100, SingleNode: phase(1), MultiNode: phase(1), Scaling: 3.9},
		},
		Exec: &Exec{Budget: 20000, Rounds: 3, InterpBranchesPerSecond: 1e7,
			Workloads: []ExecWorkload{{Name: "prolog", InterpBranchesPerSecond: 1e7}}},
		Trace: &Trace{Budget: 20000, Rounds: 3, Workers: 2, SinglePassEventsPerSecond: 1e8,
			RunAwareEventsPerSecond: 3e8, PartitionedEventsPerSecond: 4e8, ProfileEventsPerSecond: 5e7, Speedup: 3,
			Workloads: []TraceWorkload{{Name: "cc", Events: 20000, EncodedBytes: 999, SinglePassEventsPerSecond: 1e8,
				RunAwareEventsPerSecond: 3e8, PartitionedEventsPerSecond: 4e8, ProfileEventsPerSecond: 5e7, Speedup: 3}}},
	}
}

func writeFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "results.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	want := full()
	path := filepath.Join(t.TempDir(), "results.json")
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the document:\n got  %+v\n want %+v", got, want)
	}
	first, _ := os.ReadFile(path)
	if err := Write(path, got); err != nil {
		t.Fatal(err)
	}
	second, _ := os.ReadFile(path)
	if !bytes.Equal(first, second) || !bytes.HasSuffix(first, []byte("}\n")) {
		t.Fatal("rewriting a read document must reproduce its bytes, newline-terminated")
	}
}

// TestCommittedBaselineRoundTrips reads the committed baseline and writes
// it back: every field the file holds must be part of the schema, so the
// compare gate sees all of it.
func TestCommittedBaselineRoundTrips(t *testing.T) {
	const committed = "../../BENCH_results.json"
	want, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Read(committed)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Service == nil || doc.Exec == nil || doc.Trace == nil || len(doc.Experiments) == 0 {
		t.Fatal("committed baseline lost a section on read")
	}
	path := filepath.Join(t.TempDir(), "results.json")
	if err := Write(path, doc); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, want) {
		t.Fatal("committed baseline does not round-trip byte for byte: a field is missing from the schema")
	}
}

func TestMissingSections(t *testing.T) {
	path := writeFile(t, `{"schema": "krallbench-results/v1", "budget": 100}`)
	doc, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Budget != 100 || doc.Service != nil || doc.Exec != nil || doc.Trace != nil || doc.Experiments != nil {
		t.Fatalf("sparse document read as %+v", doc)
	}
	if err := Write(path, doc); err != nil {
		t.Fatal(err)
	}
	out, _ := os.ReadFile(path)
	for _, absent := range []string{`"service"`, `"exec"`, `"trace"`} {
		if bytes.Contains(out, []byte(absent)) {
			t.Errorf("absent section %s written back", absent)
		}
	}
}

func TestSchemaRequired(t *testing.T) {
	for name, body := range map[string]string{
		"missing": `{"budget": 100}`,
		"wrong":   `{"schema": "krallbench-results/v2"}`,
	} {
		if _, err := Read(writeFile(t, body)); err == nil || !strings.Contains(err.Error(), "schema") {
			t.Errorf("%s schema: err = %v, want a schema error", name, err)
		}
	}
	if _, err := Read(writeFile(t, `{"schema": `)); err == nil {
		t.Error("truncated JSON read without error")
	}
	if _, err := Read(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file read without error")
	}
}

// TestUnknownFieldsIgnored pins forward compatibility: a document written
// by a newer tool, with fields and sections this schema does not know,
// still reads, keeping every known field.
func TestUnknownFieldsIgnored(t *testing.T) {
	path := writeFile(t, `{
  "schema": "krallbench-results/v1",
  "budget": 500,
  "layers": {"lang.parse": 0.1},
  "engine": {"jobs": 3, "future_counter": 9},
  "experiments": [{"id": "table1", "seconds": 0.25, "spread": 0.01}]
}`)
	doc, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Budget != 500 || doc.Engine.Jobs != 3 || len(doc.Experiments) != 1 ||
		doc.Experiments[0].ID != "table1" || doc.Experiments[0].Seconds != 0.25 {
		t.Fatalf("known fields lost: %+v", doc)
	}
}
