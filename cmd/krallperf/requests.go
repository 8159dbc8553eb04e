package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/service"
)

// serviceWorkload is one traffic mix against kralld.
type serviceWorkload struct {
	name string
	// warm brings a fresh server to the state the timed phase starts
	// from; it is part of set-up.
	warm func(s *server) error
	// op sends the i-th request of the timed phase, checks the answer and
	// returns the request's class and latency.
	op func(s *server, i int) (int, time.Duration, error)
	// verify runs the checks deferred past the timed phase, so the client
	// does not compete with the server for the cores while it is timed.
	verify func(r *result)
	// mirror feeds the same requests through the layers in-process for
	// the traced run.
	mirror mirror
}

// budget is the branch budget of every recording the request workloads
// make: kralld's default.
func (o options) budget() uint64 {
	if o.tiny {
		return 20_000
	}
	return 200_000
}

// segments is how many times a run sets its workload up. Each set-up is
// followed by one timed segment on the fresh server, so the set-ups and
// the timed windows spread over the whole run, not over one stretch of it.
func (o options) segments() int {
	if o.tiny || o.trace {
		return 1
	}
	return 7
}

// segmentBounds sizes one timed segment: its share of the run length and
// of at least 1,000 requests, so the p99 has ten samples beyond it.
func (o options) segmentBounds() bounds {
	if o.tiny {
		return bounds{minOps: 20, maxOps: 20}
	}
	n := o.segments()
	return bounds{seconds: o.seconds / time.Duration(n), minOps: (1000 + n - 1) / n}
}

// warmSeed generates the set-up's inputs where they need not be the
// workload's own: the set-up then does the same work at every -seed, so
// setup_s does not vary with it.
const warmSeed = 0

// runService runs the workload's segments, each a set-up of a fresh server
// and a timed closed-loop phase on it, or, with -trace 1, one set-up and
// the traced run.
func runService(o options, w *serviceWorkload) (*result, error) {
	r := &result{}
	var (
		setups []float64
		win    windowed
		lats   []float64
		next   int // the number of the next timed request
	)
	for k := 0; k < o.segments(); k++ {
		t0 := time.Now()
		srv, err := startServer()
		if err != nil {
			return nil, err
		}
		if err := w.warm(srv); err != nil {
			_ = srv.stop() // the warmup error is the one to report
			return nil, fmt.Errorf("warmup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if o.trace {
			defer srv.stop()
			return traceService(o, w, srv, r)
		}
		lr := w.phase(srv, o.segmentBounds(), next, r)
		next = lr.next
		if err := srv.stop(); err != nil {
			return nil, err
		}
		// The next set-up starts from a collected heap, not from this
		// segment's garbage.
		runtime.GC()
		win.add(lr)
		for _, s := range lr.samples {
			lats = append(lats, float64(s.lat)/float64(time.Millisecond))
		}
	}
	if w.verify != nil {
		w.verify(r)
	}
	if len(lats) == 0 {
		return nil, fmt.Errorf("no request succeeded: %v", r.Errors)
	}
	_, p99, perr := percentiles(lats)
	r.add("setup_s", median(setups), "s")
	r.add("ops_per_s", median(win.rates), "1/s")
	r.add("p50_ms", median(win.p50s), "ms")
	r.add("slow_class_ms", win.slowClass(), "ms")
	r.add("peak_rss_mb", peakRSSMB(), "MB")
	if perr == nil {
		r.add("p99_ms", p99, "ms")
	} else if !o.tiny {
		r.note(perr)
	}
	r.add("fail_ratio", float64(r.Failed)/float64(r.Attempted), "fraction")
	r.add("requests", float64(r.Attempted), "count")
	r.add("windows", float64(len(win.rates)), "count")
	return r, nil
}

// phase runs the workload's requests, numbered from first on, in the
// closed loop and counts them and their failures into r.
func (w *serviceWorkload) phase(srv *server, b bounds, first int, r *result) loopResult {
	lr := closedLoop(b, first, func(i int) (int, time.Duration, error) { return w.op(srv, i) })
	r.Attempted += lr.attempted
	r.Failed += lr.failed
	if lr.firstErr != nil {
		r.note(lr.firstErr)
	}
	return lr
}

// traceService is the traced run of a request workload: a closed-loop
// phase whose server-side counters come from /metrics, then the same
// requests fed through the layers in-process, once without spans and once
// with them.
func traceService(o options, w *serviceWorkload, srv *server, r *result) (*result, error) {
	b := bounds{seconds: o.seconds / 2, minOps: 1}
	if o.tiny {
		b = bounds{minOps: 8, maxOps: 8}
	}
	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	a0 := totalAlloc()
	lr := w.phase(srv, b, 0, r)
	alloc := totalAlloc() - a0
	if w.verify != nil {
		w.verify(r)
	}
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	var clientSum time.Duration
	for _, s := range lr.samples {
		clientSum += s.lat
	}
	l := &layerCounts{
		cacheHitRatio: ratio(delta("kralld_store_hits_total"), delta("kralld_store_hits_total")+delta("kralld_store_misses_total")),
		liveRunsPerOp: ratio(delta("kralld_engine_live_runs_total"), float64(lr.attempted)),
		serverShare: ratio(ratio(delta("kralld_request_seconds_sum"), delta("kralld_request_seconds_count")),
			ratio(clientSum.Seconds(), float64(len(lr.samples)))),
		rejected:     delta("kralld_rejected_total"),
		allocKBPerOp: ratio(float64(alloc)/1024, float64(lr.attempted)),
	}

	// The in-process passes replay a quarter of the closed loop's
	// requests; single-threaded, each takes about a quarter of the run.
	n := max(lr.attempted/4, 1)
	if err := w.mirror.prepare(n); err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := w.mirror.op(nil, i, &layerCounts{}); err != nil {
			r.fail(err)
		}
	}
	plain := time.Since(t0)
	l.ops = n
	tr := newTracer()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		tr.begin("request")
		_, err := w.mirror.op(tr, i, l)
		tr.end()
		if err != nil {
			r.fail(err)
		}
	}
	traced := time.Since(t0)
	r.Attempted += 2 * n
	if err := l.report(r, o, w.name, tr.spans, traced, traced-plain); err != nil {
		return nil, err
	}
	return r, nil
}

// serviceRun runs the request workload mk builds.
func serviceRun(mk func(options) (*serviceWorkload, error)) func(options) (*result, error) {
	return func(o options) (*result, error) {
		w, err := mk(o)
		if err != nil {
			return nil, err
		}
		return runService(o, w)
	}
}

// coldWorkload is replicate-cold: /v1/replicate with the verifier on, each
// request on a fresh dataset, so every request records, folds, selects,
// replicates, verifies and measures.
func coldWorkload(o options) (*serviceWorkload, error) {
	progs := catalog(o.seed)
	warmups := progs
	if o.tiny {
		warmups = progs[:2]
	}
	return &serviceWorkload{
		name: "replicate-cold",
		warm: func(s *server) error {
			for _, prog := range warmups {
				req := service.Request{Workload: prog, Budget: o.budget(), Check: true}
				out, err := s.post("replicate", mustJSON(req))
				if err != nil {
					return err
				}
				if err := checkReplicate(out, req.Workload); err != nil {
					return err
				}
			}
			return nil
		},
		op: func(s *server, i int) (int, time.Duration, error) {
			req := coldRequest(o.seed, i, o.budget())
			out, lat, err := s.timedPost(call{"replicate", mustJSON(req)})
			if err == nil {
				err = checkReplicate(out, req.Workload)
			}
			return i % len(progs), lat, err
		},
		mirror: &coldMirror{seed: o.seed, budget: o.budget()},
	}, nil
}

// hotWorkload is serve-hot: a fixed set of calls, answered once during
// set-up, replayed in a seeded order, so every answer comes from the store.
func hotWorkload(o options) (*serviceWorkload, error) {
	calls := hotCalls(o.seed, o.budget())
	warm := make([][]byte, len(calls))
	return &serviceWorkload{
		name: "serve-hot",
		warm: func(s *server) error {
			for k, c := range calls {
				out, err := s.post(c.endpoint, c.body)
				if err != nil {
					return err
				}
				warm[k] = out
			}
			return nil
		},
		op: func(s *server, i int) (int, time.Duration, error) {
			k := hotIndex(o.seed, i, len(calls))
			out, lat, err := s.timedPost(calls[k])
			if err == nil {
				err = checkHot(out, warm[k])
			}
			return k, lat, err
		},
		mirror: &hotMirror{seed: o.seed, calls: calls, warm: warm},
	}, nil
}

// uploadWorkload is upload: analyze requests on freshly generated programs
// alternating with twobit scores of uploaded traces, none of which the
// store can answer.
func uploadWorkload(o options) (*serviceWorkload, error) {
	ntraces := 32
	if o.tiny {
		ntraces = 4
	}
	traces, err := recordTraces(o.seed, ntraces, o.budget())
	if err != nil {
		return nil, err
	}
	var (
		mu    sync.Mutex
		sites = map[int]int{} // analyze request index → answered num_sites
	)
	return &serviceWorkload{
		name: "upload",
		warm: func(s *server) error {
			for k, tr := range traces {
				out, err := s.post("score", tr.body)
				if err == nil {
					err = checkScore(out, tr)
				}
				if err != nil {
					return err
				}
				req, src := sourceRequest(warmSeed, streamSourceWarm, k)
				if out, err = s.post("analyze", mustJSON(req)); err != nil {
					return err
				}
				if err := checkAnalyze(out, src); err != nil {
					return err
				}
			}
			return nil
		},
		op: func(s *server, i int) (int, time.Duration, error) {
			if i%2 == 0 {
				req, _ := sourceRequest(o.seed, streamSource, i/2)
				out, lat, err := s.timedPost(call{"analyze", mustJSON(req)})
				if err == nil {
					var n int
					if n, err = analyzeSites(out); err == nil {
						mu.Lock()
						sites[i/2] = n
						mu.Unlock()
					}
				}
				return 0, lat, err
			}
			tr := traces[(i/2)%len(traces)]
			out, lat, err := s.timedPost(call{"score", tr.body})
			if err == nil {
				err = checkScore(out, tr)
			}
			return 1, lat, err
		},
		verify: func(r *result) {
			for j, n := range sites {
				_, src := sourceRequest(o.seed, streamSource, j)
				if err := checkAnalyzeSites(n, src); err != nil {
					r.fail(err)
				}
			}
		},
		mirror: &uploadMirror{seed: o.seed, traces: traces},
	}, nil
}

// analyzeSites reads num_sites from an /v1/analyze answer.
func analyzeSites(body []byte) (int, error) {
	var r struct {
		NumSites *int `json:"num_sites"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("decoding analyze response: %w", err)
	}
	if r.NumSites == nil {
		return 0, fmt.Errorf("analyze response has no num_sites")
	}
	return *r.NumSites, nil
}
