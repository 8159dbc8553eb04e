package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

// TestAnswerKeyCoversRequest sets each exported Request field, one at a
// time, to a non-zero value: every one must move the answer key, so a field
// added later cannot make two different requests share an answer.
func TestAnswerKeyCoversRequest(t *testing.T) {
	zero, err := answerKey("profile", &Request{})
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(Request{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		var req Request
		v := reflect.ValueOf(&req).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.String:
			v.SetString("x")
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(1)
		case reflect.Uint64:
			v.SetUint(1)
		case reflect.Float64:
			v.SetFloat(1.5)
		case reflect.Slice:
			if f.Type.Elem().Kind() != reflect.String {
				t.Fatalf("field %s: no non-zero value for %s", f.Name, f.Type)
			}
			v.Set(reflect.ValueOf([]string{"x"}))
		default:
			t.Fatalf("field %s: no non-zero value for %s", f.Name, f.Type)
		}
		key, err := answerKey("profile", &req)
		if err != nil {
			t.Fatal(err)
		}
		if key == zero {
			t.Errorf("setting %s leaves the answer key unchanged", f.Name)
		}
	}
	if k, _ := answerKey("machines", &Request{}); k == zero {
		t.Error("the endpoint name does not move the answer key")
	}
}

// metricLine returns the value of one exposition line, "" if absent.
func metricLine(t *testing.T, ts *httptest.Server, series string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	return ""
}

// TestAnswerCacheMetered pins what the answer cache serves: repeats of a
// request — also reformatted, and also as batch items — hit, while
// /v1/replicate and uploaded traces bypass the cache and count in neither
// series.
func TestAnswerCacheMetered(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	b64, err := recordTraceB64("predict", 2000)
	if err != nil {
		t.Fatal(err)
	}
	calls := []struct{ endpoint, body string }{
		{"profile", `{"workload":"cc","budget":5000}`},
		{"profile", `{ "budget": 5000, "workload": "cc" }`},
		{"batch", `{"items":[{"endpoint":"profile","workload":"cc","budget":5000}]}`},
		{"replicate", `{"workload":"cc","budget":5000}`},
		{"replicate", `{"workload":"cc","budget":5000}`},
		{"score", fmt.Sprintf(`{"trace_b64":%q}`, b64)},
		{"score", fmt.Sprintf(`{"trace_b64":%q}`, b64)},
	}
	var first []byte
	for _, c := range calls {
		code, out := post(t, ts, c.endpoint, c.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.endpoint, code, out)
		}
		if c.endpoint == "profile" {
			if first == nil {
				first = out
			} else if !bytes.Equal(out, first) {
				t.Fatal("a reformatted request got different answer bytes")
			}
		}
	}
	for series, want := range map[string]string{
		`kralld_answer_cache_misses_total{endpoint="profile"}`:   "1",
		`kralld_answer_cache_hits_total{endpoint="profile"}`:     "2",
		`kralld_answer_cache_misses_total{endpoint="replicate"}`: "0",
		`kralld_answer_cache_hits_total{endpoint="replicate"}`:   "0",
		`kralld_answer_cache_misses_total{endpoint="score"}`:     "0",
		`kralld_answer_cache_hits_total{endpoint="score"}`:       "0",
	} {
		if got := metricLine(t, ts, series); got != want {
			t.Errorf("%s = %q, want %s", series, got, want)
		}
	}
	if got := metricLine(t, ts, `kralld_answer_cache_hits_total{endpoint="batch"}`); got != "" {
		t.Errorf("batch has its own answer-cache series (%s); items count under their endpoint", got)
	}
}

// TestAnswerLogsCached pins the cached attribute of the debug request
// line: false when the answer was computed, true when it was stored.
func TestAnswerLogsCached(t *testing.T) {
	var logs bytes.Buffer
	h := mustNew(t, Config{Logger: slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))}).Handler()
	for _, want := range []string{"cached=false", "cached=true"} {
		logs.Reset()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(`{"workload":"cc"}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if !strings.Contains(logs.String(), want) {
			t.Errorf("request log lacks %s:\n%s", want, logs.String())
		}
	}
}

// TestAnswerDetachedFromRequester is the single-flight contract at the
// answer layer: two identical cold /v1/profile requests share one fill,
// and the first client disconnecting mid-fill must not fail the second,
// which gets its full answer — the bytes a fresh server gives.
func TestAnswerDetachedFromRequester(t *testing.T) {
	const body = `{"workload":"compress","budget":5000000}`
	s, ts := newTestServer(t, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/profile", strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		first <- err
	}()
	inflight := func() int64 { return s.metrics.endpoints["profile"].inflight.Load() }
	waitFor := func(n int64) {
		for deadline := time.Now().Add(10 * time.Second); inflight() < n; {
			if time.Now().After(deadline) {
				t.Fatalf("profile requests in flight = %d, want %d", inflight(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(1)
	type answer struct {
		code int
		body []byte
		err  error
	}
	second := make(chan answer, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/profile", "application/json", strings.NewReader(body))
		if err != nil {
			second <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		second <- answer{resp.StatusCode, out, err}
	}()
	waitFor(2)
	cancel()
	if err := <-first; err == nil {
		t.Log("first request finished before its cancellation; the fill did not overlap")
	}
	a := <-second
	if a.err != nil || a.code != http.StatusOK {
		t.Fatalf("second client: status %d, error %v: %s", a.code, a.err, a.body)
	}
	got := a.body

	_, ref := newTestServer(t, Config{})
	code, want := post(t, ref, "profile", body)
	if code != http.StatusOK {
		t.Fatalf("reference: status %d: %s", code, want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("second client's answer differs from a fresh server's:\n got: %.200s\nwant: %.200s", got, want)
	}
	if recs := s.Engine().Stats().TraceRecords; recs != 1 {
		t.Errorf("%d recordings, want 1 shared fill", recs)
	}
}

// TestProgramFaultIsClientError pins that a program failing on its own —
// a trap, no main, a main with parameters — is the client's 400 on every
// endpoint that runs it, never a daemon 5xx.
func TestProgramFaultIsClientError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, src := range []string{
		"func main() int { var z int = 0; return 1 / z; }",
		"func f() int { return 1; }",
		"func main(a int) int { return a; }",
	} {
		for _, ep := range []string{"profile", "machines", "replicate", "score"} {
			body, _ := json.Marshal(Request{Source: src, Budget: 2000})
			if code, out := post(t, ts, ep, string(body)); code != http.StatusBadRequest {
				t.Errorf("%s on %q: status %d (%s), want 400", ep, src, code, out)
			}
		}
	}
}

// FuzzRequest drives the whole handler with mutated bodies for every
// pipeline endpoint and /v1/batch. Whatever the body, the answer is a 200
// or a 4xx — never a 5xx, in the envelope or in any batch item — and a 200
// asked again is byte-identical.
func FuzzRequest(f *testing.F) {
	targets := append(append([]string(nil), Endpoints...), batchEndpoint)
	index := func(name string) uint8 {
		for i, ep := range targets {
			if ep == name {
				return uint8(i)
			}
		}
		panic(name)
	}
	var items []string
	for _, tc := range goldenCases {
		f.Add(index(tc.endpoint), []byte(tc.body))
		items = append(items, fmt.Sprintf(`{"endpoint":%q,%s`, tc.endpoint, tc.body[1:]))
	}
	for _, body := range []string{
		`{"items":[` + strings.Join(items[:5], ",") + `]}`,
		`{"items":[{"endpoint":"nope","workload":"cc"},{"endpoint":"profile","workload":"no_such_workload"},{"endpoint":"profile","workload":"cc","budget":5000}]}`,
		`{"items":[{"endpoint":"score","workload":"cc","budget":5000,"strategy":"twobit"}],"workers":1}`,
		`{"items":[]}`,
		`{"items":[{}]}00`,
		`{`,
	} {
		f.Add(index(batchEndpoint), []byte(body))
	}
	if b64, err := recordTraceB64("predict", 2000); err == nil {
		f.Add(index("score"), []byte(fmt.Sprintf(`{"trace_b64":%q,"strategy":"last"}`, b64)))
	}

	// Budgets stay small so every input answers in well under a second.
	h := mustNew(f, Config{MaxBudget: 20_000, DefaultBudget: 5000, MaxBatchItems: 16}).Handler()
	ask := func(target string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+target, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		target := targets[int(which)%len(targets)]
		code, out := ask(target, body)
		if code >= 500 {
			t.Fatalf("%s: status %d: %s", target, code, out)
		}
		if code != http.StatusOK {
			return
		}
		if target == batchEndpoint {
			// Decoded as the server does: the first JSON value of the body.
			var req BatchRequest
			var resp BatchResponse
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("batch answered 200 to a body that does not decode: %v", err)
			}
			if err := json.Unmarshal(out, &resp); err != nil {
				t.Fatalf("batch answer does not decode: %v", err)
			}
			for i, it := range resp.Items {
				// A batch's own timeout_ms may expire items with 504.
				if it.Status >= 500 && !(it.Status == http.StatusGatewayTimeout && req.TimeoutMS > 0) {
					t.Fatalf("batch item %d (%s): status %d: %s", i, it.Endpoint, it.Status, it.Error)
				}
			}
			if req.TimeoutMS > 0 {
				return // which items beat the deadline may change
			}
		}
		code2, again := ask(target, body)
		if code2 != code || !bytes.Equal(again, out) {
			t.Fatalf("%s: asked again, status %d → %d, answer changed:\nfirst: %.300s\nagain: %.300s",
				target, code, code2, out, again)
		}
	})
}

// BenchmarkHotAnswer times the in-process handler over a warmed call set
// shaped like a hot serving mix: profile, machines at 4 states, a twobit
// score and analyze for each catalog program (32 calls), every one of them
// answered before the timer starts.
func BenchmarkHotAnswer(b *testing.B) {
	h := mustNew(b, Config{}).Handler()
	type call struct {
		target string
		body   []byte
	}
	var calls []call
	for i, w := range bench.Workloads() {
		seed := int64(1000 + i)
		for _, c := range []struct {
			target string
			req    Request
		}{
			{"profile", Request{Workload: w.Name, Seed: seed, Budget: 200_000}},
			{"machines", Request{Workload: w.Name, Seed: seed, Budget: 200_000, States: 4}},
			{"score", Request{Workload: w.Name, Seed: seed, Budget: 200_000, Strategy: "twobit"}},
			{"analyze", Request{Workload: w.Name}},
		} {
			body, err := json.Marshal(c.req)
			if err != nil {
				b.Fatal(err)
			}
			calls = append(calls, call{c.target, body})
		}
	}
	ask := func(c call) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+c.target, bytes.NewReader(c.body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", c.target, rec.Code, rec.Body.Bytes())
		}
	}
	for _, c := range calls {
		ask(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ask(calls[i%len(calls)])
	}
}
