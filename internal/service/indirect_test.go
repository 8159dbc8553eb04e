package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// TestIndirectRunsMemoised pins the indirect family's measurements to the
// store: three identical svm requests make the baseline and clustered live
// runs once between them and answer byte-identically, while each request
// still gets its own verifier verdict. A completion run that traps is not
// stored, so the trapping program answers 400 every time.
func TestIndirectRunsMemoised(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const req = `{"workload":"svm","budget":20000,"family":"indirect","check":true}`
	var first []byte
	for i := 0; i < 3; i++ {
		code, out := post(t, ts, "replicate", req)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, out)
		}
		if i == 0 {
			first = out
		} else if !bytes.Equal(out, first) {
			t.Fatalf("request %d answered differently:\n%s\nwant\n%s", i, out, first)
		}
	}
	if live := s.Engine().Stats().LiveRuns; live != 2 {
		t.Fatalf("three identical requests made %d live runs, want 2", live)
	}
	if ok := s.verifyOK.Load(); ok != 3 {
		t.Fatalf("verifier ran %d times, want once per request", ok)
	}

	body, err := json.Marshal(Request{Source: completionTrapSource, Budget: 20_000, Family: "indirect"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if code, out := post(t, ts, "replicate", string(body)); code != http.StatusBadRequest {
			t.Fatalf("trapping request %d: status %d: %.200s", i, code, out)
		}
	}
}
