// Package results defines the krallbench-results/v1 document: the
// machine-readable output of a krallbench sweep, extended by the service
// throughput harness (krallload -throughput) with a "service" section.
// Three consumers share it — cmd/krallbench writes it, cmd/krallload
// merges the service section into an existing file, and the
// bench-regression gate (krallbench -compare) reads two of them and
// refuses throughput drops — so the schema lives here rather than in any
// one command.
package results

import (
	"encoding/json"
	"fmt"
	"os"
)

// Schema identifies the document format.
const Schema = "krallbench-results/v1"

// Document is one benchmark run: configuration, end-to-end timing, the
// experiment engine's counters, per-section timings, and (when the
// throughput harness has run) the service section.
type Document struct {
	Schema string `json:"schema"`
	Budget uint64 `json:"budget"`
	Quick  bool   `json:"quick"`
	// Workers is the experiment engine's pool width for the sweep.
	Workers int `json:"workers"`
	// TotalSeconds is end-to-end wall clock; BranchesPerSecond is the
	// trace-event throughput (recorded + replayed events over wall clock).
	TotalSeconds      float64   `json:"total_seconds"`
	BranchesPerSecond float64   `json:"branches_per_second"`
	Engine            Engine    `json:"engine"`
	Experiments       []Section `json:"experiments"`
	// Service holds the kralld throughput measurement; absent until
	// krallload -throughput -benchjson has merged one in.
	Service *Service `json:"service,omitempty"`
	// Exec holds the interpreter throughput measurement; absent until
	// krallbench -execbench has run.
	Exec *Exec `json:"exec,omitempty"`
	// Trace holds the trace-plane replay throughput; absent until
	// krallbench -tracebench has run.
	Trace *Trace `json:"trace,omitempty"`
}

// Engine mirrors runner.Stats in JSON form.
type Engine struct {
	Jobs           int64   `json:"jobs"`
	JobSeconds     float64 `json:"job_seconds"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	TraceRecords   int64   `json:"trace_records"`
	RecordedEvents int64   `json:"recorded_events"`
	Replays        int64   `json:"replays"`
	ReplayedEvents int64   `json:"replayed_events"`
	LiveRuns       int64   `json:"live_runs"`
}

// Section is one experiment section's timing.
type Section struct {
	ID              string  `json:"id"`
	TraceSufficient bool    `json:"trace_sufficient"`
	Seconds         float64 `json:"seconds"`
}

// Service is the kralld throughput section: the same request mix served
// one sub-request per HTTP POST (Single) and batched through /v1/batch
// (Batch), with the requests/sec ratio between the two.
type Service struct {
	Workloads   []string `json:"workloads"`
	Budget      uint64   `json:"budget"`
	Concurrency int      `json:"concurrency"`
	// Rounds is how many times each phase ran; the phases report their
	// best round, damping scheduler and GC noise.
	Rounds int   `json:"rounds"`
	Single Phase `json:"single"`
	Batch  Phase `json:"batch"`
	// Speedup is Batch.RequestsPerSecond / Single.RequestsPerSecond.
	Speedup float64 `json:"speedup"`
	// Cluster holds the multi-node scaling measurement; absent until
	// krallload -throughput -nodes N has merged one in.
	Cluster *Cluster `json:"cluster,omitempty"`
}

// Cluster is the multi-node scaling section: the same ring-routed
// request mix served by one rate-capped kralld process and then by
// Nodes of them, with the aggregate requests/sec ratio. Every node
// carries the same PerNodeMaxRPS admission cap, so cluster capacity is
// capacity partitioning (nodes × cap) rather than a race for the same
// cores — which is what makes the scaling number meaningful on a small
// CI host.
type Cluster struct {
	Nodes         int     `json:"nodes"`
	PerNodeMaxRPS float64 `json:"per_node_max_rps"`
	SingleNode    Phase   `json:"single_node"`
	MultiNode     Phase   `json:"multi_node"`
	// Scaling is MultiNode.RequestsPerSecond / SingleNode.RequestsPerSecond.
	Scaling float64 `json:"scaling"`
}

// EndpointLatency is one endpoint's client-observed request latency
// percentiles within a phase ("batch" covers whole /v1/batch posts).
type EndpointLatency struct {
	Endpoint  string  `json:"endpoint"`
	P50Millis float64 `json:"p50_millis"`
	P99Millis float64 `json:"p99_millis"`
}

// Phase is one throughput measurement: N sub-requests served at a given
// batch size.
type Phase struct {
	BatchSize int `json:"batch_size"`
	// HTTPPosts is the number of HTTP round trips; Requests the pipeline
	// sub-requests they carried (equal when BatchSize is 1).
	HTTPPosts int `json:"http_posts"`
	Requests  int `json:"requests"`
	// Branches sums the "events" field of every sub-response: the branch
	// events the service accounted for while answering.
	Branches          uint64  `json:"branches"`
	Seconds           float64 `json:"seconds"`
	RequestsPerSecond float64 `json:"requests_per_second"`
	BranchesPerSecond float64 `json:"branches_per_second"`
	// Latency is the per-endpoint client-observed p50/p99, sorted by
	// endpoint name.
	Latency []EndpointLatency `json:"latency,omitempty"`
}

// Exec is the interpreter throughput section: budgeted live runs timed
// on the interpreter (best of Rounds rounds each, no collectors attached).
type Exec struct {
	Budget uint64 `json:"budget"`
	Rounds int    `json:"rounds"`
	// InterpBranchesPerSecond is total branches over total best-round
	// time across all workloads.
	InterpBranchesPerSecond float64        `json:"interp_branches_per_second"`
	Workloads               []ExecWorkload `json:"workloads"`
}

// ExecWorkload is one workload's interpreter throughput.
type ExecWorkload struct {
	Name                    string  `json:"name"`
	InterpBranchesPerSecond float64 `json:"interp_branches_per_second"`
}

// Trace is the trace-plane replay throughput section: the same recorded
// slabs decoded event-at-a-time (the historical baseline), through the
// fused run-aware pass, and into the full profile bundle (best of Rounds
// rounds each). The aggregate rates are total events over total
// best-round time across all workloads.
type Trace struct {
	Budget uint64 `json:"budget"`
	Rounds int    `json:"rounds"`

	SinglePassEventsPerSecond float64         `json:"single_pass_events_per_second"`
	RunAwareEventsPerSecond   float64         `json:"run_aware_events_per_second"`
	ProfileEventsPerSecond    float64         `json:"profile_events_per_second"`
	Speedup                   float64         `json:"speedup"`
	Workloads                 []TraceWorkload `json:"workloads"`
}

// TraceWorkload is one workload's replay throughput comparison.
type TraceWorkload struct {
	Name                      string  `json:"name"`
	Events                    uint64  `json:"events"`
	EncodedBytes              int     `json:"encoded_bytes"`
	SinglePassEventsPerSecond float64 `json:"single_pass_events_per_second"`
	RunAwareEventsPerSecond   float64 `json:"run_aware_events_per_second"`
	ProfileEventsPerSecond    float64 `json:"profile_events_per_second"`
	Speedup                   float64 `json:"speedup"`
}

// Read loads and validates a document.
func Read(path string) (*Document, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, Schema)
	}
	return &doc, nil
}

// Write marshals the document with stable indentation and a trailing
// newline, the format committed as BENCH_results.json.
func Write(path string, doc *Document) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
