package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

func mustNew(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := mustNew(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, endpoint, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/"+endpoint, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// stepBoundBody asks /v1/replicate, with the verifier on, about a program
// that runs over 512 instructions per branch: under its branch budget, its
// runs stop at the step backstop first.
var stepBoundBody = func() string {
	src := "var acc int;\nfunc main() int {\n    for var i int = 0; i < 1000000; i = i + 1 {\n" +
		strings.Repeat("        acc = (acc * 31 + i) % 1000003;\n", 200) +
		"        if acc % 7 == 0 {\n            acc = acc + 1;\n        }\n    }\n    print(acc);\n    return acc;\n}\n"
	out, err := json.Marshal(Request{Source: src, Budget: 2000, Check: true})
	if err != nil {
		panic(err)
	}
	return string(out)
}()

// goldenCases are the requests whose answers are committed under
// testdata/golden; FuzzRequest seeds from them too.
var goldenCases = []struct {
	name     string
	endpoint string
	body     string
}{
	{"profile_compress", "profile", `{"workload":"compress","budget":20000}`},
	{"machines_compress", "machines", `{"workload":"compress","budget":20000,"states":4}`},
	{"replicate_compress", "replicate", `{"workload":"compress","budget":20000,"states":4}`},
	{"score_compress_twobit", "score", `{"workload":"compress","budget":20000,"strategy":"twobit"}`},
	{"score_compress_static", "score", `{"workload":"compress","budget":20000,"strategy":"static","preds":["taken","not_taken"]}`},
	{"machines_scheduler_paths", "machines", `{"workload":"scheduler","budget":20000,"states":6,"max_path_len":2}`},
	{"replicate_cc_joint", "replicate", `{"workload":"cc","budget":20000,"joint":true}`},
	{"analyze_compress", "analyze", `{"workload":"compress"}`},
	{"replicate_compress_static", "replicate", `{"workload":"compress","budget":20000,"states":4,"static_budget":true}`},
	{"replicate_svm_indirect", "replicate", `{"workload":"svm","budget":20000,"family":"indirect","check":true}`},
	{"replicate_lex_indirect", "replicate", `{"workload":"lex","budget":20000,"family":"indirect","check":true,"seed":424243}`},
	{"replicate_compress_check", "replicate", `{"workload":"compress","budget":20000,"states":4,"check":true}`},
	{"replicate_cc_joint_check", "replicate", `{"workload":"cc","budget":20000,"joint":true,"check":true}`},
	{"replicate_steps_check", "replicate", stepBoundBody},
}

// TestGoldenResponses pins the exact response bytes of every endpoint, cold
// and cached: the kralld/v1 schema is a compatibility contract, and any
// drift — field order, number formatting, pipeline results — must show up
// in review. Regenerate with go test ./internal/service -run Golden -update.
func TestGoldenResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", tc.name+".json")
			// The first ask computes the answer, the second is served from
			// the answer cache (replicate recomputes): both must be golden.
			for _, pass := range []string{"cold", "cached"} {
				code, got := post(t, ts, tc.endpoint, tc.body)
				if code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", pass, code, got)
				}
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to regenerate)", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s response drifted from %s:\n got: %s\nwant: %s", pass, path, got, want)
				}
			}
		})
	}
}

// TestResponsesByteStable re-asks the same questions and demands identical
// bytes — the property the load client asserts in production.
func TestResponsesByteStable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bodies := map[string]string{
		"profile":   `{"workload":"abalone","budget":20000}`,
		"machines":  `{"workload":"abalone","budget":20000}`,
		"replicate": `{"workload":"abalone","budget":20000}`,
		"score":     `{"workload":"abalone","budget":20000,"strategy":"last"}`,
	}
	for endpoint, body := range bodies {
		code, first := post(t, ts, endpoint, body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", endpoint, code, first)
		}
		for i := 0; i < 3; i++ {
			_, again := post(t, ts, endpoint, body)
			if !bytes.Equal(first, again) {
				t.Fatalf("%s: repeat %d returned different bytes", endpoint, i)
			}
		}
	}
}

// TestScoreUpload round-trips a locally recorded trace through the upload
// path and checks the server counts exactly the recorded events.
func TestScoreUpload(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	b64, err := recordTraceB64("predict", 5000)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"trace_b64":%q,"strategy":"profile"}`, b64)
	code, out := post(t, ts, "score", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}
	var resp ScoreResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Events != 5000 {
		t.Errorf("Events = %d, want 5000", resp.Events)
	}
	if resp.Source != "upload" {
		t.Errorf("Source = %q, want upload", resp.Source)
	}
	if resp.Score.Predicted == 0 {
		t.Error("Score.Predicted = 0, want events scored")
	}
}

// TestScoreUploadTooLarge exercises the trace.Limits guard on the upload
// path: a run-length bomb claiming millions of events must be refused with
// 413 before it allocates.
func TestScoreUploadTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{
		TraceLimits: trace.Limits{MaxEvents: 1000, MaxBytes: 1 << 20},
	})
	b64, err := recordTraceB64("predict", 5000)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"trace_b64":%q}`, b64)
	code, out := post(t, ts, "score", body)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", code, out)
	}
}

// TestScoreUploadHugeSite is the site-ID bomb: a tiny upload whose single
// event names a huge site must be refused with 413, not size per-site
// tables from it (which would allocate gigabytes and OOM the daemon).
func TestScoreUploadHugeSite(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var buf bytes.Buffer
	slab := trace.NewSlab(0)
	slab.Record(1<<30, true)
	slab.Seal()
	if _, err := slab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"trace_b64":%q}`, base64.StdEncoding.EncodeToString(buf.Bytes()))
	code, out := post(t, ts, "score", body)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", code, out)
	}
}

// TestBadRequests sweeps the request-validation surface.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, endpoint, body string
		wantCode             int
	}{
		{"no_program", "profile", `{}`, 400},
		{"both_programs", "profile", `{"workload":"cc","source":"x"}`, 400},
		{"unknown_workload", "profile", `{"workload":"nope"}`, 400},
		{"bad_source", "profile", `{"source":"func main( {"}`, 400},
		{"unknown_field", "profile", `{"workload":"cc","nope":1}`, 400},
		{"budget_over_cap", "profile", `{"workload":"cc","budget":999999999}`, 400},
		{"states_out_of_range", "machines", `{"workload":"cc","states":1}`, 400},
		{"states_too_large", "replicate", `{"workload":"cc","states":11}`, 400},
		{"path_len_out_of_range", "machines", `{"workload":"cc","max_path_len":9}`, 400},
		{"size_factor_range", "replicate", `{"workload":"cc","max_size_factor":0.5}`, 400},
		{"bad_strategy", "score", `{"workload":"cc","strategy":"oracle"}`, 400},
		{"bad_base64", "score", `{"trace_b64":"@@@"}`, 400},
		{"trace_and_program", "score", `{"workload":"cc","trace_b64":"QkxUUkFDRTE"}`, 400},
		{"bad_preds", "score", `{"workload":"cc","strategy":"static","preds":["sideways"]}`, 400},
		{"unknown_family", "replicate", `{"workload":"cc","family":"exotic"}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := post(t, ts, tc.endpoint, tc.body)
			if code != tc.wantCode {
				t.Fatalf("status %d (%s), want %d", code, out, tc.wantCode)
			}
			var eb errorBody
			if err := json.Unmarshal(out, &eb); err != nil || eb.Schema != Schema || eb.Error == "" {
				t.Fatalf("error envelope %s malformed (%v)", out, err)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow = %q, want POST", allow)
	}
}

// TestBackpressure fills an endpoint's admission semaphore and expects the
// next request to be refused with 429 + Retry-After instead of queueing.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 2})
	for i := 0; i < 2; i++ {
		s.sems["profile"] <- struct{}{}
	}
	defer func() {
		<-s.sems["profile"]
		<-s.sems["profile"]
	}()
	code, out := post(t, ts, "profile", `{"workload":"cc"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", code, out)
	}
	resp, err := http.Post(ts.URL+"/v1/profile", "application/json", strings.NewReader(`{"workload":"cc"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After")
	}
	// Other endpoints must be unaffected: admission is per-endpoint.
	if code, out := post(t, ts, "score", `{"workload":"cc","budget":5000}`); code != http.StatusOK {
		t.Fatalf("score during profile overload: status %d (%s), want 200", code, out)
	}
}

// spinSrc loops ~2^62 times; only a deadline or cancellation stops it in
// test-sized time.
const spinSrc = `
var total int;

func main() int {
    for var i int = 0; i < 4611686018427387904; i = i + 1 {
        total = total + i;
    }
    return total;
}`

// TestArtifactDetachedFromRequester pins the single-flight contract:
// recording runs under a context detached from the requester's, so a
// client that disconnects (here: a context cancelled before the call)
// cannot poison the cache entry for concurrent waiters sharing it.
func TestArtifactDetachedFromRequester(t *testing.T) {
	s := mustNew(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := &Request{Workload: "cc"}
	c, err := s.resolveProgram(req)
	if err != nil {
		t.Fatal(err)
	}
	art, err := s.artifactFor(ctx, c, req, 5000)
	if err != nil {
		t.Fatalf("recording failed under a cancelled requester context: %v", err)
	}
	if art.Slab.Len() == 0 {
		t.Fatal("recording produced an empty slab")
	}
}

// TestRequestTimeout proves the deadline reaches the interpreter loop: a
// spinning program must come back 504, not hang.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: 50 * time.Millisecond, MaxBudget: 1 << 40})
	body, _ := json.Marshal(map[string]any{"source": spinSrc, "budget": 1 << 39})
	start := time.Now()
	code, out := post(t, ts, "profile", string(body))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", code, out)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, deadline is not reaching the run loop", elapsed)
	}
}

// TestGracefulShutdown covers the SIGTERM drain path: an in-flight request
// completes after shutdown begins, and the listener refuses new work.
func TestGracefulShutdown(t *testing.T) {
	s := mustNew(t, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + l.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, l, 10*time.Second) }()

	// Prove the server is up, and warm the artifact cache so the in-flight
	// request below spends its time in the handler, not recording.
	if _, err := http.Get(base + "/healthz"); err != nil {
		t.Fatal(err)
	}

	// Start a request, then trigger shutdown while it may still be running.
	type result struct {
		code int
		body []byte
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/replicate", "application/json",
			strings.NewReader(`{"workload":"doduc","budget":200000}`))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		inflight <- result{code: resp.StatusCode, body: body}
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the handler
	cancel()

	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request: status %d (%s), want 200", r.code, r.body)
	}
	if err := <-served; err != nil && err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	// The listener is closed: new connections must fail.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
}

// TestMetricsEndpoint sanity-checks the exposition format and that request
// counters move.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheShards: 4})
	if code, out := post(t, ts, "profile", `{"workload":"cc","budget":5000}`); code != http.StatusOK {
		t.Fatalf("profile: status %d (%s)", code, out)
	}
	if code, out := post(t, ts, "batch", `{"items":[{"endpoint":"score","workload":"cc","budget":5000,"strategy":"twobit"}]}`); code != http.StatusOK {
		t.Fatalf("batch: status %d (%s)", code, out)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`kralld_requests_total{endpoint="profile",code="200"} 1`,
		`kralld_request_seconds_bucket{endpoint="profile",le="+Inf"} 1`,
		"kralld_engine_trace_records_total 1",
		"kralld_store_entries",
		"kralld_store_shards 4",
		`kralld_store_shard_entries{shard="0"}`,
		`kralld_store_shard_hits_total{shard="3"}`,
		`kralld_batch_items_total{endpoint="score",code="200"} 1`,
		`kralld_requests_total{endpoint="batch",code="200"} 1`,
		"kralld_uptime_seconds",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSourceProgram runs the pipeline on an ad-hoc BL program instead of a
// catalog workload.
func TestSourceProgram(t *testing.T) {
	src := `
var wseed int = 7;

func main() int {
    var acc int = 0;
    for var i int = 0; i < 5000; i = i + 1 {
        if i % 3 == 0 {
            acc = acc + i;
        } else {
            acc = acc - 1;
        }
    }
    return acc;
}`
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(map[string]any{"source": src, "budget": 20000})
	code, out := post(t, ts, "replicate", string(body))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}
	var resp ReplicateResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.SemanticsVerified {
		t.Error("replicated clone changed the program's checksum")
	}
	if resp.Replicated.RatePct > resp.Baseline.RatePct {
		t.Errorf("replication made prediction worse: %.2f%% -> %.2f%%",
			resp.Baseline.RatePct, resp.Replicated.RatePct)
	}
}

// TestReplicateVerification covers the check knob end to end: the body
// flag and the check=true query parameter both turn on the
// replication-equivalence verifier, the response reports verified, and
// the verdict counters show up on /metrics.
func TestReplicateVerification(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Without check, the verifier must not run.
	code, out := post(t, ts, "replicate", `{"workload":"compress","budget":20000}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}
	var resp ReplicateResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Verified {
		t.Error("verified=true without check")
	}

	// Body flag, sequential and joint.
	for _, body := range []string{
		`{"workload":"compress","budget":20000,"check":true}`,
		`{"workload":"compress","budget":20000,"check":true,"joint":true}`,
	} {
		code, out := post(t, ts, "replicate", body)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, out)
		}
		resp = ReplicateResponse{}
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Verified {
			t.Errorf("verified=false for %s", body)
		}
	}

	// Query knob on a body that does not mention check.
	r, err := http.Post(ts.URL+"/v1/replicate?check=true", "application/json",
		strings.NewReader(`{"workload":"compress","budget":20000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	out, _ = io.ReadAll(r.Body)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("query knob: status %d: %s", r.StatusCode, out)
	}
	resp = ReplicateResponse{}
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Verified {
		t.Error("verified=false via check=true query parameter")
	}

	// Three checked requests succeeded; the counter must say so.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(mbody), "krallcheck_verified_total 3") {
		t.Errorf("/metrics missing krallcheck_verified_total 3:\n%s", mbody)
	}
	if !strings.Contains(string(mbody), "krallcheck_failed_total 0") {
		t.Errorf("/metrics missing krallcheck_failed_total 0")
	}
}

// TestUploadRoundTripMatchesLocal scores the same trace server-side and
// locally and demands identical results: the wire format loses nothing.
func TestUploadRoundTripMatchesLocal(t *testing.T) {
	prog, err := lang.Compile(`
func main() int {
    var acc int = 0;
    for var i int = 0; i < 400; i = i + 1 {
        if i % 7 < 3 {
            acc = acc + 2;
        }
    }
    return acc;
}`)
	if err != nil {
		t.Fatal(err)
	}
	nsites := prog.NumberBranches(true)
	m := interp.New(prog)
	slab := trace.NewSlab(0)
	m.Rec = slab
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	slab.Seal()
	var buf bytes.Buffer
	if _, err := slab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"trace_b64":%q,"strategy":"twobit"}`,
		base64.StdEncoding.EncodeToString(buf.Bytes()))
	code, out := post(t, ts, "score", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}
	var resp ScoreResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.NumSites > nsites {
		t.Errorf("NumSites = %d, program has %d", resp.NumSites, nsites)
	}
	if resp.Events != slab.Len() {
		t.Errorf("Events = %d, recorded %d", resp.Events, slab.Len())
	}
}

// TestColdReplicateFoldsNoGlobalTable asks a cold /v1/replicate, then
// fetches the profile it folded from the store: replication reads no
// global-history table, so the service builds none.
func TestColdReplicateFoldsNoGlobalTable(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := Request{Workload: "compress", Seed: 11, Budget: 50_000, Check: true}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if code, out := post(t, ts, "replicate", string(body)); code != http.StatusOK {
		t.Fatalf("replicate: status %d: %s", code, out)
	}
	c, err := s.resolveProgram(&req)
	if err != nil {
		t.Fatal(err)
	}
	budget, err := s.budgetFor(&req)
	if err != nil {
		t.Fatal(err)
	}
	replays := s.eng.Stats().Replays
	prof, _, err := s.profileFor(context.Background(), c, &req, budget)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.eng.Stats().Replays; got != replays {
		t.Fatalf("the request's profile was not in the store: %d replays, then %d", replays, got)
	}
	if prof.Global != nil {
		t.Fatal("the service's profile folded a global-history table")
	}
	if prof.Path.Recorded() == 0 {
		t.Fatal("the service's profile folded no path table")
	}
}
