//go:build !race

// Under the race detector sync.Pool drops a quarter of its puts on
// purpose, so pooled buffers would show up here as allocation.

package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestScoreUploadSteadyStateAllocs pins the one-read upload path: once the
// pooled body and trace buffers have warmed up, a posted 200k-event twobit
// upload allocates only the request's own small objects and its answer,
// never a copy of its 360 KB body or its trace (2.44 MB per request when
// trace_b64 was decoded through a Go string).
func TestScoreUploadSteadyStateAllocs(t *testing.T) {
	b64, err := recordTraceB64("predict", 200_000)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(fmt.Sprintf(`{"trace_b64":%q,"strategy":"twobit"}`, b64))
	h := mustNew(t, Config{}).Handler()
	ask := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	ask() // warm the pools
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		ask()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 64<<10 {
		t.Fatalf("a %d-byte upload allocates %d bytes per request in steady state, want under 64 KB", len(body), per)
	}
}
