package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/service"
)

// inputs returns every input the workloads generate from seed, by kind.
func inputs(t *testing.T, seed int64) map[string][][]byte {
	t.Helper()
	out := map[string][][]byte{}
	add := func(kind string, b []byte) { out[kind] = append(out[kind], b) }
	for i := 0; i < 16; i++ {
		add("replicate-cold", mustJSON(coldRequest(seed, i, 200_000)))
	}
	for _, c := range hotCalls(seed, 200_000) {
		add("serve-hot calls", append([]byte(c.endpoint+" "), c.body...))
	}
	for i := 0; i < 64; i++ {
		add("serve-hot order", []byte(strconv.Itoa(hotIndex(seed, i, 32))))
	}
	for i := 0; i < 4; i++ {
		req, _ := sourceRequest(seed, streamSource, i)
		add("upload sources", mustJSON(req))
	}
	traces, err := recordTraces(seed, 2, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		add("upload traces", tr.body)
	}
	add("sweep config", []byte(fmt.Sprintf("%+v", sweepConfig(seed, false))))
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := inputs(t, 1), inputs(t, 1), inputs(t, 2)
	for kind, as := range a {
		for i := range as {
			if !bytes.Equal(as[i], b[kind][i]) {
				t.Errorf("%s[%d] differs between two generations at one seed", kind, i)
			}
		}
		same := true
		for i := range as {
			same = same && bytes.Equal(as[i], c[kind][i])
		}
		if same {
			t.Errorf("%s is the same at seeds 1 and 2", kind)
		}
	}
}

// TestServerSeesOnlyGeneratedInputs drives each request workload's set-up
// and first requests against a recording server: every request it
// receives is a generated input, posted to its endpoint with no query.
func TestServerSeesOnlyGeneratedInputs(t *testing.T) {
	o := options{seed: 4, tiny: true}
	for _, mk := range []func(options) (*serviceWorkload, error){coldWorkload, hotWorkload, uploadWorkload} {
		w, err := mk(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			srv, err := service.New(service.Config{})
			if err != nil {
				t.Fatal(err)
			}
			var (
				mu  sync.Mutex
				got []string
			)
			ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					t.Error(err)
				}
				mu.Lock()
				got = append(got, r.URL.RequestURI()+" "+string(body))
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
				srv.Handler().ServeHTTP(rw, r)
			}))
			defer ts.Close()
			s := &server{url: ts.URL, client: ts.Client()}
			if err := w.warm(s); err != nil {
				t.Fatal(err)
			}
			const ops = 6
			for i := 0; i < ops; i++ {
				if _, _, err := w.op(s, i); err != nil {
					t.Fatal(err)
				}
			}
			want := generated(t, w.name, o, ops)
			sort.Strings(got)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("server received %d requests, the workload generated %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("server received %.80q, not a generated input", got[i])
				}
			}
		})
	}
}

// generated lists the requests a workload's set-up and first ops send, as
// "URI body", rebuilt from the input generators.
func generated(t *testing.T, name string, o options, ops int) []string {
	var out []string
	add := func(endpoint string, body []byte) { out = append(out, "/v1/"+endpoint+" "+string(body)) }
	switch name {
	case "replicate-cold":
		for _, prog := range catalog(o.seed)[:2] {
			add("replicate", mustJSON(service.Request{Workload: prog, Budget: o.budget(), Check: true}))
		}
		for i := 0; i < ops; i++ {
			add("replicate", mustJSON(coldRequest(o.seed, i, o.budget())))
		}
	case "serve-hot":
		calls := hotCalls(o.seed, o.budget())
		for _, c := range calls {
			add(c.endpoint, c.body)
		}
		for i := 0; i < ops; i++ {
			c := calls[hotIndex(o.seed, i, len(calls))]
			add(c.endpoint, c.body)
		}
	case "upload":
		traces, err := recordTraces(o.seed, 4, o.budget())
		if err != nil {
			t.Fatal(err)
		}
		for k, tr := range traces {
			add("score", tr.body)
			req, _ := sourceRequest(warmSeed, streamSourceWarm, k)
			add("analyze", mustJSON(req))
		}
		for i := 0; i < ops; i++ {
			if i%2 == 0 {
				req, _ := sourceRequest(o.seed, streamSource, i/2)
				add("analyze", mustJSON(req))
			} else {
				add("score", traces[(i/2)%len(traces)].body)
			}
		}
	}
	return out
}
