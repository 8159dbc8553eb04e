package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
)

// referenceDecode reads and decodes an endpoint body the way the service
// did before decodeRequest: a json.Decoder with DisallowUnknownFields
// straight over the capped body, then trace_b64 through
// base64.StdEncoding.DecodeString. It returns the request without its
// trace, the trace bytes (nil: no upload) and the first refusal.
func referenceDecode(body []byte, limit int64) (Request, []byte, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, nil, err
	}
	b64 := req.TraceB64
	req.TraceB64 = ""
	if b64 == "" {
		return req, nil, nil
	}
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return Request{}, nil, err
	}
	return req, raw, nil
}

// newDecode is the endpoint's path — readBody under the same cap, then
// decodeRequest into scratch — with a trace left in TraceB64 decoded as
// handleScore decodes it, in the shape referenceDecode returns.
func newDecode(body []byte, limit int64, scratch []byte) (Request, []byte, error) {
	var req Request
	read, readErr := new(reqBufs).readBody(nil, httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(body)), limit)
	if err := decodeRequest(&req, read, readErr, scratch); err != nil {
		return Request{}, nil, err
	}
	raw := req.upload
	if raw != nil && req.TraceB64 != "" {
		return Request{}, nil, fmt.Errorf("trace both decoded and left in TraceB64 (%.20q)", req.TraceB64)
	}
	if raw == nil && req.TraceB64 != "" {
		var err error
		if raw, err = base64.StdEncoding.DecodeString(req.TraceB64); err != nil {
			return Request{}, nil, err
		}
	}
	req.TraceB64, req.upload = "", nil
	return req, raw, nil
}

// decodeSeeds are FuzzDecodeRequest's hand-written bodies: the escapes,
// key spellings and JSON shapes the trace_b64 skim must read as
// encoding/json does.
func decodeSeeds(tb testing.TB) []string {
	b64, err := recordTraceB64("predict", 2000)
	if err != nil {
		tb.Fatal(err)
	}
	// The same trace, with every '/' and 'A' escaped.
	escaped := strings.NewReplacer("/", `\/`, "A", `\u0041`).Replace(b64)
	seeds := []string{
		fmt.Sprintf(`{"trace_b64":%q,"strategy":"twobit"}`, b64),
		fmt.Sprintf(`{"trace_b64":"%s","strategy":"last"}`, escaped),
		`{"trace_b64":"Qkx\u0055UkFDRTE\/","strategy":"twobit"}`,
		`{"trace_b64":"QkxU\/UkFD\u0041RTE=","strategy":"twobit"}`,
		fmt.Sprintf(`{"TRACE_B64":%q}`, b64),
		fmt.Sprintf(`{"Trace_b64":%q,"STRATEGY":"profile"}`, b64),
		fmt.Sprintf(`{"trace_b64":%q}`, b64),
		fmt.Sprintf(`{"trace_b64":"@@@","trace_b64":%q}`, b64),
		fmt.Sprintf(`{"trace_b64":%q,"TRACE_B64":"QQ=="}`, b64),
		fmt.Sprintf(`{"trace_b64":5,"trace_b64":%q}`, b64),
		fmt.Sprintf(`{"source":"func main() int { return 0; } \"trace_b64\": \"@@\"","trace_b64":%q}`, b64),
		`{"source":"\"trace_b64\":\"QkxUUkFDRTE=\"","workload":"cc"}`,
		fmt.Sprintf(`{"preds":["taken","not_taken"],"strategy":"static","trace_b64":%q,"budget":1e3}`, b64),
		fmt.Sprintf(`{"preds":[["x"],{"trace_b64":"QQ=="}],"trace_b64":%q}`, b64),
		fmt.Sprintf(`{"nested":{"trace_b64":"QQ=="},"trace_b64":%q}`, b64),
		fmt.Sprintf(" \r\n\t{ \"trace_b64\" :\n %q ,\t\"strategy\" : \"twobit\" }\n", b64),
		fmt.Sprintf(`{"trace_b64":%q} {"workload":"cc"} trailing garbage`, b64),
		fmt.Sprintf(`{"trace_b64":%q}]`, b64),
		`{"trace_b64":"","workload":"cc","budget":5000}`,
		`{"trace_b64":"\n"}`,
		`{"trace_b64":"QkxU` + "\n" + `UkFDRTE="}`,
		`{"trace_b64":"QkxU\nUkFDRTE=\r"}`,
		`{"trace_b64":"QkxUé"}`,
		"{\"trace_b64\":\"QkxU\xffUkFD\"}",
		`{"trace_b64":"QkxU\x"}`,
		`{"trace_b64":"QkxUUkFDRTE=\\"}`,
		`{"trace_b64":"QkxUUkFDRTE=\\\"}`,
		`{"trace_b64":null,"workload":"cc"}`,
		`{"trace_b64":["QQ=="]}`,
		`{"trace_b64":"QQ==","nope":1}`,
		`{"trace_b64":"QQ==",}`,
		`{"trace_b64":"QQ==" "strategy":"last"}`,
		`{"trace_b64":"QQ`,
		`{"trace_b64":"QQ=="`,
		`{"workload":"cc","trace_b64":"QkxUUkFDRTE"}`,
		`{"workload":"cc","budget":20000}`,
		`[{"trace_b64":"QQ=="}]`,
		`null`,
		``,
	}
	for _, tc := range goldenCases {
		seeds = append(seeds, tc.body)
	}
	return seeds
}

// FuzzDecodeRequest holds decodeRequest, which decodes trace_b64 straight
// from the body, to referenceDecode: for any body and any body cap, the
// same request, the same trace bytes, and the same refusal, message
// included. The scratch buffer starts as garbage to show the result never
// depends on what a pooled buffer held before.
func FuzzDecodeRequest(f *testing.F) {
	for i, body := range decodeSeeds(f) {
		f.Add([]byte(body), uint16(0))
		f.Add([]byte(body), uint16(i*7%(len(body)+1)))
	}
	scratch := bytes.Repeat([]byte{0xA5}, 4096)
	f.Fuzz(func(t *testing.T, body []byte, cut uint16) {
		limit := int64(len(body)) // cut 0: the whole body fits
		if cut > 0 && int64(cut) < limit {
			limit = int64(cut)
		}
		wantReq, wantRaw, wantErr := referenceDecode(body, limit)
		gotReq, gotRaw, gotErr := newDecode(body, limit, scratch[:0])
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("limit %d: error %v, reference %v", limit, gotErr, wantErr)
		}
		if !reflect.DeepEqual(gotReq, wantReq) {
			t.Fatalf("limit %d: request %+v, reference %+v", limit, gotReq, wantReq)
		}
		if (gotRaw == nil) != (wantRaw == nil) || !bytes.Equal(gotRaw, wantRaw) {
			t.Fatalf("limit %d: trace %q, reference %q", limit, gotRaw, wantRaw)
		}
	})
}

// TestDecodeRequestAdoptsUpload pins the point of decodeRequest: a plain
// upload is decoded into the scratch buffer, not kept as a string.
func TestDecodeRequestAdoptsUpload(t *testing.T) {
	b64, err := recordTraceB64("predict", 2000)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := base64.StdEncoding.DecodeString(b64)
	scratch := make([]byte, 0, len(want)+8)
	for _, body := range []string{
		fmt.Sprintf(`{"trace_b64":%q,"strategy":"twobit"}`, b64),
		fmt.Sprintf(`{"strategy":"last","TRACE_B64":"%s"}`, strings.ReplaceAll(b64, "/", `\/`)),
	} {
		var req Request
		if err := decodeRequest(&req, []byte(body), nil, scratch); err != nil {
			t.Fatal(err)
		}
		if req.TraceB64 != "" || !bytes.Equal(req.upload, want) || &req.upload[0] != &scratch[:1][0] {
			t.Fatalf("%.40s...: TraceB64 %d bytes, upload %d bytes (want %d, in scratch)", body, len(req.TraceB64), len(req.upload), len(want))
		}
	}
}

// TestBodyCap pins the status codes of bodies past MaxBodyBytes, which
// stay the decoder's: the body is refused with 413 only if its first JSON
// value does not end within the cap, and a syntax error before the cap is
// still a 400.
func TestBodyCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024, DefaultBudget: 5000})
	b64, err := recordTraceB64("predict", 2000)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat(" ", 2048)
	for _, tc := range []struct {
		name, endpoint, body string
		want                 int
	}{
		{"upload_past_cap", "score", fmt.Sprintf(`{"trace_b64":%q}`, b64), http.StatusRequestEntityTooLarge},
		{"value_ends_before_cap", "score", `{"workload":"cc","strategy":"twobit"}` + pad, http.StatusOK},
		{"open_value_at_cap", "score", `{"workload":"cc",` + pad + `"strategy":"twobit"}`, http.StatusRequestEntityTooLarge},
		{"syntax_error_before_cap", "score", `{"workload":"cc",,` + pad + `}`, http.StatusBadRequest},
	} {
		if code, out := post(t, ts, tc.endpoint, tc.body); code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, code, out, tc.want)
		}
	}
}

// TestConcurrentUploads posts different uploads through one handler from
// several goroutines at once: each answer must be the local score of its
// own trace, which fails if a pooled body or trace buffer is handed to
// another request while its slab is still being scored.
func TestConcurrentUploads(t *testing.T) {
	srv := mustNew(t, Config{MaxInflight: 16}) // no 429s: every request runs
	h := srv.Handler()
	type upload struct {
		body []byte
		want *ScoreResponse
	}
	var uploads []upload
	strategies := []string{"profile", "last", "twobit"}
	for i, w := range bench.Workloads()[:6] {
		b64, err := recordTraceB64(w.Name, uint64(5000+4000*i))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := base64.StdEncoding.DecodeString(b64)
		strategy := strategies[i%len(strategies)]
		code, want := referenceScore(raw, srv.cfg.TraceLimits, strategy, nil)
		if code != http.StatusOK {
			t.Fatalf("%s: reference status %d", w.Name, code)
		}
		body, _ := json.Marshal(Request{TraceB64: b64, Strategy: strategy})
		uploads = append(uploads, upload{body, want})
	}
	var wg sync.WaitGroup
	for g := range uploads {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 12; k++ {
				u := uploads[(g+k)%len(uploads)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(u.body)))
				var got ScoreResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil {
					t.Errorf("goroutine %d: status %d: %s", g, rec.Code, rec.Body)
					return
				}
				if got != *u.want {
					t.Errorf("goroutine %d: answer %+v, local score %+v", g, got, *u.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
