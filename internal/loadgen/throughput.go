package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/results"
	"repro/internal/service"
)

// ThroughputOptions parameterises Throughput, the batching benchmark.
type ThroughputOptions struct {
	// Workloads are the catalog programs in the request mix (default: the
	// whole suite).
	Workloads []string
	// Budget is the branch budget per sub-request (default 20000).
	Budget uint64
	// BatchSize is the /v1/batch item count per POST in the batched phase
	// (default 8, minimum 2 — 1 would measure the single phase twice).
	BatchSize int
	// Requests is the sub-request count per phase round, rounded up to a
	// multiple of BatchSize (default 1024).
	Requests int
	// Rounds is how many times each phase runs; the best round (highest
	// requests/sec) is reported, damping scheduler and GC noise so the CI
	// regression gate sees peak steady-state throughput, not scheduling
	// luck (default 3).
	Rounds int
	// Concurrency is the number of in-flight HTTP posts in both phases
	// (default 4).
	Concurrency int
	// Timeout bounds one HTTP round trip (default 60s).
	Timeout time.Duration
}

func (o *ThroughputOptions) setDefaults() {
	if len(o.Workloads) == 0 {
		for _, w := range bench.Workloads() {
			o.Workloads = append(o.Workloads, w.Name)
		}
	}
	if o.Budget == 0 {
		o.Budget = 20_000
	}
	if o.BatchSize < 2 {
		o.BatchSize = 8
	}
	if o.Requests == 0 {
		o.Requests = 1024
	}
	if o.Rounds == 0 {
		o.Rounds = 3
	}
	if o.Concurrency == 0 {
		o.Concurrency = 4
	}
	if o.Timeout == 0 {
		o.Timeout = 60 * time.Second
	}
}

// tputCall is one sub-request of the throughput mix.
type tputCall struct {
	endpoint string
	body     json.RawMessage
	// route is the cluster placement key ("" = no stable placement);
	// ClusterThroughput uses it to ring-route each call client-side.
	route string
}

// baseRequests is the request mix skeleton — profile, machines, and
// score over the workloads.
func baseRequests(opts *ThroughputOptions) []struct {
	endpoint string
	req      service.Request
} {
	var out []struct {
		endpoint string
		req      service.Request
	}
	for _, name := range opts.Workloads {
		out = append(out, []struct {
			endpoint string
			req      service.Request
		}{
			{"profile", service.Request{Workload: name, Budget: opts.Budget}},
			{"machines", service.Request{Workload: name, Budget: opts.Budget, States: 4}},
			{"score", service.Request{Workload: name, Budget: opts.Budget, Strategy: "twobit"}},
		}...)
	}
	return out
}

// asCall marshals a request into a mix entry with its placement key
// precomputed from the same service.Request the JSON body encodes, so client
// routing and server serving agree byte for byte.
func asCall(endpoint string, req *service.Request, defaultBudget uint64) (tputCall, error) {
	buf, err := json.Marshal(req)
	if err != nil {
		return tputCall{}, err
	}
	return tputCall{endpoint: endpoint, body: buf, route: service.RouteKey(req, defaultBudget)}, nil
}

// buildMix builds the single-server request mix.
func buildMix(opts *ThroughputOptions) ([]tputCall, error) {
	var mix []tputCall
	for _, c := range baseRequests(opts) {
		call, err := asCall(c.endpoint, &c.req, opts.Budget)
		if err != nil {
			return nil, err
		}
		mix = append(mix, call)
	}
	return mix, nil
}

// balancedMix builds the cluster request mix: every base call is
// expanded with one seed variant per node, chosen so its placement key
// lands on that node. The seed participates in the artifact content key
// (it changes the recorded run), so each variant is a legitimately
// distinct request — and the population is owner-balanced by
// construction, making the scaling measurement capacity-limited rather
// than hostage to how a handful of keys happened to hash. Entries are
// interleaved node-minor so round-robin draws cycle the nodes.
func balancedMix(opts *ThroughputOptions, ring *cluster.Ring, nodes []string) ([]tputCall, error) {
	var mix []tputCall
	for _, c := range baseRequests(opts) {
		for _, node := range nodes {
			found := false
			for seed := int64(1); seed <= 20_000; seed++ {
				req := c.req
				req.Seed = seed
				key := service.RouteKey(&req, opts.Budget)
				if owner, ok := ring.Owner(key); ok && owner == node {
					call, err := asCall(c.endpoint, &req, opts.Budget)
					if err != nil {
						return nil, err
					}
					mix = append(mix, call)
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("no seed in 20000 routes %s %q to %s", c.endpoint, c.req.Workload, node)
			}
		}
	}
	return mix, nil
}

// Throughput measures the service's request throughput twice over the
// identical sub-request mix — one sub-request per HTTP POST, then
// BatchSize sub-requests per POST /v1/batch — and reports both phases
// plus their requests/sec ratio. The mix cycles profile, machines, and
// score over the workloads; a warmup pass populates the artifact store
// first, so both phases measure the cache-served steady state (the
// production-shaped regime: a hot program recorded once, served many
// times) rather than one phase paying the recording cost for the other.
// This is the engine of krallload -throughput, and its report is the
// "service" section of the krallbench-results/v1 document that the CI
// bench-regression gate compares.
func Throughput(ctx context.Context, baseURL string, opts ThroughputOptions) (*results.Service, error) {
	opts.setDefaults()
	baseURL = strings.TrimRight(baseURL, "/")
	sort.Strings(opts.Workloads)

	mix, err := buildMix(&opts)
	if err != nil {
		return nil, err
	}

	// The default transport keeps only two idle connections per host;
	// with more in-flight posts than that, the surplus workers would
	// re-dial TCP on every request and the harness would measure its own
	// connection churn instead of the service.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = opts.Concurrency
	tr.MaxIdleConnsPerHost = opts.Concurrency
	client := &http.Client{Timeout: opts.Timeout, Transport: tr}
	defer tr.CloseIdleConnections()

	// Warmup: every distinct call once, so recordings happen outside the
	// timed phases and both phases replay from the store.
	for _, c := range mix {
		if _, _, err := postWithRetry(ctx, client, baseURL+"/v1/"+c.endpoint, c.body); err != nil {
			return nil, fmt.Errorf("warmup %s: %w", c.endpoint, err)
		}
	}

	n := opts.Requests
	if rem := n % opts.BatchSize; rem != 0 {
		n += opts.BatchSize - rem
	}

	bestOf := func(batchSize int) (*results.Phase, error) {
		var best *results.Phase
		for r := 0; r < opts.Rounds; r++ {
			ph, err := runPhase(ctx, client, func(tputCall) string { return baseURL }, mix, n, batchSize, opts.Concurrency)
			if err != nil {
				return nil, err
			}
			if best == nil || ph.RequestsPerSecond > best.RequestsPerSecond {
				best = ph
			}
		}
		return best, nil
	}
	single, err := bestOf(1)
	if err != nil {
		return nil, fmt.Errorf("single phase: %w", err)
	}
	batch, err := bestOf(opts.BatchSize)
	if err != nil {
		return nil, fmt.Errorf("batch phase: %w", err)
	}

	svc := &results.Service{
		Workloads:   opts.Workloads,
		Budget:      opts.Budget,
		Concurrency: opts.Concurrency,
		Rounds:      opts.Rounds,
		Single:      *single,
		Batch:       *batch,
	}
	if single.RequestsPerSecond > 0 {
		svc.Speedup = batch.RequestsPerSecond / single.RequestsPerSecond
	}
	return svc, nil
}

// runPhase serves n sub-requests drawn round-robin from mix, batchSize
// per HTTP POST (1 = the plain per-endpoint path, >1 = /v1/batch), with
// conc posts in flight, and reports the throughput plus per-endpoint
// client-observed latency percentiles. baseFor picks the node each call
// is posted to — constant for a single server, ring-routed for a
// cluster (batched posts always go to the first call's node).
func runPhase(ctx context.Context, client *http.Client, baseFor func(tputCall) string, mix []tputCall, n, batchSize, conc int) (*results.Phase, error) {
	type post struct {
		url  string
		body []byte
		// label names the endpoint for latency bucketing ("batch" for a
		// multi-item post); endpoints names each sub-request carried, for
		// response parsing.
		label     string
		endpoints []string
	}
	var posts []post
	for at := 0; at < n; {
		if batchSize == 1 {
			c := mix[at%len(mix)]
			posts = append(posts, post{
				url: baseFor(c) + "/v1/" + c.endpoint, body: c.body,
				label: c.endpoint, endpoints: []string{c.endpoint},
			})
			at++
			continue
		}
		items := make([]map[string]any, 0, batchSize)
		eps := make([]string, 0, batchSize)
		first := mix[at%len(mix)]
		for k := 0; k < batchSize && at < n; k++ {
			c := mix[at%len(mix)]
			var item map[string]any
			if err := json.Unmarshal(c.body, &item); err != nil {
				return nil, err
			}
			item["endpoint"] = c.endpoint
			items = append(items, item)
			eps = append(eps, c.endpoint)
			at++
		}
		body, err := json.Marshal(map[string]any{"items": items})
		if err != nil {
			return nil, err
		}
		posts = append(posts, post{
			url: baseFor(first) + "/v1/batch", body: body,
			label: "batch", endpoints: eps,
		})
	}

	var branches atomic.Uint64
	var firstErr error
	var errMu sync.Mutex
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	// One latency slot per post, written lock-free by index and bucketed
	// by endpoint afterwards; retries and Retry-After sleeps count, since
	// they are what the client actually waits.
	latencies := make([]time.Duration, len(posts))

	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(posts) {
					return
				}
				p := posts[i]
				t0 := time.Now()
				out, _, err := postWithRetry(ctx, client, p.url, p.body)
				latencies[i] = time.Since(t0)
				if err != nil {
					setErr(err)
					return
				}
				ev, err := countEvents(out, len(p.endpoints) > 1)
				if err != nil {
					setErr(err)
					return
				}
				branches.Add(ev)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}

	byEndpoint := make(map[string][]time.Duration)
	for i, p := range posts {
		byEndpoint[p.label] = append(byEndpoint[p.label], latencies[i])
	}
	ph := &results.Phase{
		BatchSize: batchSize,
		HTTPPosts: len(posts),
		Requests:  n,
		Branches:  branches.Load(),
		Seconds:   elapsed.Seconds(),
		Latency:   latencySummary(byEndpoint),
	}
	if secs := elapsed.Seconds(); secs > 0 {
		ph.RequestsPerSecond = float64(n) / secs
		ph.BranchesPerSecond = float64(ph.Branches) / secs
	}
	return ph, nil
}

// latencySummary reduces per-endpoint duration samples to p50/p99,
// sorted by endpoint name for stable JSON.
func latencySummary(byEndpoint map[string][]time.Duration) []results.EndpointLatency {
	var out []results.EndpointLatency
	for ep, ds := range byEndpoint {
		if len(ds) == 0 {
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		pick := func(q float64) float64 {
			i := int(q * float64(len(ds)-1))
			return float64(ds[i]) / float64(time.Millisecond)
		}
		out = append(out, results.EndpointLatency{
			Endpoint:  ep,
			P50Millis: pick(0.50),
			P99Millis: pick(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// ClusterThroughput measures aggregate requests/sec against a set of
// kralld nodes with client-side consistent-hash routing: each call is
// posted straight to the ring owner of its placement key (the same ring
// and RouteKey the servers use), so no request pays a forwarding hop
// during measurement. Single posts only — batching would smear one
// post's sub-requests across owners. With one node it degenerates to a
// plain single-phase measurement, which is how krallload -nodes
// establishes the single-node baseline with identical client mechanics.
func ClusterThroughput(ctx context.Context, nodes []string, opts ThroughputOptions) (*results.Phase, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster throughput: no nodes")
	}
	opts.setDefaults()
	sort.Strings(opts.Workloads)
	trimmed := make([]string, len(nodes))
	for i, u := range nodes {
		trimmed[i] = strings.TrimRight(u, "/")
	}
	ring := cluster.NewRing(trimmed, 0)

	mix, err := balancedMix(&opts, ring, trimmed)
	if err != nil {
		return nil, err
	}
	var rr atomic.Int64
	baseFor := func(c tputCall) string {
		if c.route != "" {
			if owner, ok := ring.Owner(c.route); ok {
				return owner
			}
		}
		// No stable placement: spread round-robin so unroutable calls
		// don't pile onto one node.
		return trimmed[int(rr.Add(1))%len(trimmed)]
	}

	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = opts.Concurrency * len(trimmed)
	tr.MaxIdleConnsPerHost = opts.Concurrency
	client := &http.Client{Timeout: opts.Timeout, Transport: tr}
	defer tr.CloseIdleConnections()

	// Warmup each call on its owner so recordings happen once, outside
	// the timed rounds, on the node that will keep serving the artifact.
	for _, c := range mix {
		if _, _, err := postWithRetry(ctx, client, baseFor(c)+"/v1/"+c.endpoint, c.body); err != nil {
			return nil, fmt.Errorf("cluster warmup %s: %w", c.endpoint, err)
		}
	}

	var best *results.Phase
	for r := 0; r < opts.Rounds; r++ {
		ph, err := runPhase(ctx, client, baseFor, mix, opts.Requests, 1, opts.Concurrency)
		if err != nil {
			return nil, err
		}
		if best == nil || ph.RequestsPerSecond > best.RequestsPerSecond {
			best = ph
		}
	}
	return best, nil
}

// eventsField is the slice of a pipeline response the harness needs: the
// branch events the service accounted for while answering.
type eventsField struct {
	Events uint64 `json:"events"`
}

// countEvents sums the "events" fields of a response body — directly for
// a single-endpoint response, per item for a /v1/batch envelope (in which
// every item must have answered 200).
func countEvents(body []byte, isBatch bool) (uint64, error) {
	if !isBatch {
		var ev eventsField
		if err := json.Unmarshal(body, &ev); err != nil {
			return 0, err
		}
		return ev.Events, nil
	}
	var resp struct {
		OK     int `json:"ok"`
		Failed int `json:"failed"`
		Items  []struct {
			Status int             `json:"status"`
			Error  string          `json:"error"`
			Body   json.RawMessage `json:"body"`
		} `json:"items"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, err
	}
	if resp.Failed > 0 {
		for _, it := range resp.Items {
			if it.Status != http.StatusOK {
				return 0, fmt.Errorf("batch item failed with status %d: %s", it.Status, it.Error)
			}
		}
	}
	var total uint64
	for _, it := range resp.Items {
		var ev eventsField
		if err := json.Unmarshal(it.Body, &ev); err != nil {
			return 0, err
		}
		total += ev.Events
	}
	return total, nil
}
