package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBatchMatchesSingle pins the batch contract: every item's body must
// be byte-identical to what the standalone endpoint answers for the same
// request, and items come back in input order.
func TestBatchMatchesSingle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	singles := []struct {
		endpoint, body string
	}{
		{"profile", `{"workload":"compress","budget":20000}`},
		{"machines", `{"workload":"compress","budget":20000,"states":4}`},
		{"score", `{"workload":"cc","budget":20000,"strategy":"twobit"}`},
		{"replicate", `{"workload":"compress","budget":20000,"states":4}`},
		{"replicate", `{"workload":"svm","budget":20000,"family":"indirect","check":true}`},
	}
	want := make([][]byte, len(singles))
	for i, c := range singles {
		code, out := post(t, ts, c.endpoint, c.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.endpoint, code, out)
		}
		want[i] = bytes.TrimSuffix(out, []byte("\n"))
	}

	var items []string
	for _, c := range singles {
		items = append(items, fmt.Sprintf(`{"endpoint":%q,%s`, c.endpoint, c.body[1:]))
	}
	code, out := post(t, ts, "batch", `{"items":[`+strings.Join(items, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, out)
	}
	var resp BatchResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK != len(singles) || resp.Failed != 0 {
		t.Fatalf("ok/failed = %d/%d, want %d/0", resp.OK, resp.Failed, len(singles))
	}
	for i, it := range resp.Items {
		if it.Endpoint != singles[i].endpoint {
			t.Errorf("item %d endpoint %q, want %q (order must be input order)", i, it.Endpoint, singles[i].endpoint)
		}
		if it.Status != http.StatusOK {
			t.Errorf("item %d status %d: %s", i, it.Status, it.Error)
		}
		if !bytes.Equal(it.Body, want[i]) {
			t.Errorf("item %d body differs from the standalone %s response:\nbatch:  %s\nsingle: %s",
				i, singles[i].endpoint, it.Body, want[i])
		}
	}
}

// TestBatchPartialFailure mixes failing and succeeding items: the batch
// itself answers 200 with per-item statuses, still in input order.
func TestBatchPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"items":[
		{"endpoint":"nope","workload":"cc"},
		{"endpoint":"profile","workload":"no_such_workload"},
		{"endpoint":"profile","workload":"cc","budget":5000}
	]}`
	code, out := post(t, ts, "batch", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}
	var resp BatchResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	wantStatus := []int{400, 400, 200}
	if resp.OK != 1 || resp.Failed != 2 {
		t.Fatalf("ok/failed = %d/%d, want 1/2", resp.OK, resp.Failed)
	}
	for i, it := range resp.Items {
		if it.Status != wantStatus[i] {
			t.Errorf("item %d status %d, want %d (%s)", i, it.Status, wantStatus[i], it.Error)
		}
	}
	if resp.Items[0].Error == "" || resp.Items[1].Error == "" {
		t.Error("failed items must carry an error message")
	}
	if len(resp.Items[2].Body) == 0 {
		t.Error("succeeding item missing its body")
	}
}

// TestBatchValidation sweeps the batch-specific request checks.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchItems: 2})
	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"empty", `{"items":[]}`, 400},
		{"missing_items", `{}`, 400},
		{"unknown_field", `{"items":[{"endpoint":"profile","workload":"cc"}],"nope":1}`, 400},
		{"over_cap", `{"items":[{"endpoint":"profile"},{"endpoint":"profile"},{"endpoint":"profile"}]}`, 413},
		{"garbage", `{`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := post(t, ts, "batch", tc.body)
			if code != tc.wantCode {
				t.Fatalf("status %d (%s), want %d", code, out, tc.wantCode)
			}
		})
	}
	resp, err := http.Get(ts.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", resp.StatusCode)
	}
}

// TestBatchBackpressure fills the batch admission semaphore and expects
// 429 + Retry-After, independent of the pipeline endpoints' slots.
func TestBatchBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	s.sems[batchEndpoint] <- struct{}{}
	defer func() { <-s.sems[batchEndpoint] }()
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"items":[{"endpoint":"profile","workload":"cc"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Single-request endpoints keep their own slots.
	if code, out := post(t, ts, "profile", `{"workload":"cc","budget":5000}`); code != http.StatusOK {
		t.Fatalf("profile during batch overload: status %d (%s)", code, out)
	}
}

// TestBatchDeadline proves deadlines reach the items' interpreter loops:
// a spinning program comes back as a per-item 504 (bounded by the
// server's RequestTimeout, exactly as the standalone endpoint would be —
// store population runs detached from the batch's timeout_ms so one
// batch cannot poison entries other requests are waiting on), and the
// batch itself still answers 200.
func TestBatchDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBudget: 1 << 40, RequestTimeout: 500 * time.Millisecond})
	body, _ := json.Marshal(map[string]any{
		"timeout_ms": 100,
		"items": []map[string]any{
			{"endpoint": "profile", "source": spinSrc, "budget": uint64(1) << 39},
		},
	})
	start := time.Now()
	code, out := post(t, ts, "batch", string(body))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("batch took %v, deadline is not reaching the run loop", elapsed)
	}
	var resp BatchResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Items[0].Status != http.StatusGatewayTimeout {
		t.Fatalf("item status %d (%s), want 504", resp.Items[0].Status, resp.Items[0].Error)
	}
}

// TestBatchConcurrentStress is the race-detector stress test of the
// sharded store under the batch path: many goroutines fire mixed batches
// over a deliberately tiny, multi-shard store (constant eviction churn)
// while /metrics — including the per-shard lines — is scraped
// concurrently. Identical batches must stay byte-stable throughout.
func TestBatchConcurrentStress(t *testing.T) {
	_, ts := newTestServer(t, Config{
		CacheEntries: 8,
		CacheShards:  4,
		MaxInflight:  16,
		Workers:      4,
	})
	mkBatch := func(g int) string {
		w := []string{"cc", "predict", "compress"}[g%3]
		return fmt.Sprintf(`{"items":[
			{"endpoint":"profile","workload":%[1]q,"budget":5000},
			{"endpoint":"machines","workload":%[1]q,"budget":5000,"states":4},
			{"endpoint":"score","workload":%[1]q,"budget":5000,"strategy":"twobit"},
			{"endpoint":"replicate","workload":%[1]q,"budget":5000,"states":4}
		]}`, w)
	}
	done := make(chan struct{})
	var scrape sync.WaitGroup
	scrape.Add(1)
	go func() {
		defer scrape.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	var canon [3][]byte
	var canonMu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 9; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := mkBatch(g)
			for i := 0; i < 5; i++ {
				out, err := postRetry(t.Context(), ts.URL+"/v1/batch", []byte(body))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				var resp BatchResponse
				if err := json.Unmarshal(out, &resp); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if resp.Failed != 0 {
					t.Errorf("goroutine %d: %d items failed: %s", g, resp.Failed, out)
					return
				}
				canonMu.Lock()
				if canon[g%3] == nil {
					canon[g%3] = out
				} else if !bytes.Equal(canon[g%3], out) {
					t.Errorf("goroutine %d: batch response bytes differ between repeats", g)
				}
				canonMu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(done)
	scrape.Wait()
}
