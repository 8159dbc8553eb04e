// Package loadgen holds the kralld load harnesses: Load, the
// endpoint-coverage load generator behind kralld -selfcheck and krallload,
// and Throughput/ClusterThroughput, the batching and multi-node
// benchmarks behind krallload -throughput. They drive a server over HTTP
// and use only the service package's exported request types and routing.
package loadgen

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/trace"
)

// LoadOptions parameterises Load, the service's load-generator client.
type LoadOptions struct {
	// Workloads are the catalog programs to drive (default: the whole
	// suite).
	Workloads []string
	// Budget is the branch budget sent with every request (default 20000,
	// the krallbench golden scale).
	Budget uint64
	// States is the machine size for machines/replicate (default 4).
	States int
	// Concurrency is the number of in-flight requests (default 8).
	Concurrency int
	// Repeats is how many times each distinct request fires; all repeats
	// must return byte-identical bodies (default 3).
	Repeats int
	// Timeout bounds one HTTP round trip (default 60s).
	Timeout time.Duration
}

func (o *LoadOptions) setDefaults() {
	if len(o.Workloads) == 0 {
		for _, w := range bench.Workloads() {
			o.Workloads = append(o.Workloads, w.Name)
		}
	}
	if o.Budget == 0 {
		o.Budget = 20_000
	}
	if o.States == 0 {
		o.States = 4
	}
	if o.Concurrency == 0 {
		o.Concurrency = 8
	}
	if o.Repeats == 0 {
		o.Repeats = 3
	}
	if o.Timeout == 0 {
		o.Timeout = 60 * time.Second
	}
}

// LoadReport summarises one Load run.
type LoadReport struct {
	Requests      int            `json:"requests"`
	Retried429    int            `json:"retried_429"`
	PerEndpoint   map[string]int `json:"per_endpoint"`
	ResponseBytes int64          `json:"response_bytes"`
	Seconds       float64        `json:"seconds"`
}

func (r *LoadReport) String() string {
	eps := make([]string, 0, len(r.PerEndpoint))
	for ep := range r.PerEndpoint {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d requests in %.2fs (%d retried after 429, %d response bytes)",
		r.Requests, r.Seconds, r.Retried429, r.ResponseBytes)
	for _, ep := range eps {
		fmt.Fprintf(&sb, "\n  %-10s %d ok", ep, r.PerEndpoint[ep])
	}
	return sb.String()
}

// loadCall is one distinct request: endpoint plus body. Each fires
// Repeats times; the responses must agree byte-for-byte.
type loadCall struct {
	endpoint string
	body     []byte
}

// Load drives the catalog workloads through a running kralld concurrently
// and asserts the service contract: every endpoint answers 200 with
// byte-stable JSON, and overload shows up only as 429 + Retry-After
// (which the client honours and retries). It is the -selfcheck engine of
// cmd/kralld, the body of cmd/krallload, and runs under go test -race via
// the service tests.
func Load(ctx context.Context, baseURL string, opts LoadOptions) (*LoadReport, error) {
	opts.setDefaults()
	baseURL = strings.TrimRight(baseURL, "/")

	var calls []loadCall
	addCall := func(endpoint string, req map[string]any) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		calls = append(calls, loadCall{endpoint: endpoint, body: body})
		return nil
	}
	for _, name := range opts.Workloads {
		common := map[string]any{"workload": name, "budget": opts.Budget}
		if err := addCall("profile", common); err != nil {
			return nil, err
		}
		// The static analysis endpoint takes no budget: its response is a
		// pure function of the program.
		if err := addCall("analyze", map[string]any{"workload": name}); err != nil {
			return nil, err
		}
		if err := addCall("machines", map[string]any{
			"workload": name, "budget": opts.Budget, "states": opts.States,
		}); err != nil {
			return nil, err
		}
		// check:true routes every replicate through the
		// replication-equivalence verifier, so a selfcheck also proves the
		// transform sound on the whole catalog.
		if err := addCall("replicate", map[string]any{
			"workload": name, "budget": opts.Budget, "states": opts.States, "check": true,
		}); err != nil {
			return nil, err
		}
		if err := addCall("score", map[string]any{
			"workload": name, "budget": opts.Budget, "strategy": "twobit",
		}); err != nil {
			return nil, err
		}
		// Exercise the upload path: record the workload locally and score
		// the uploaded trace. The server must report exactly the events we
		// recorded.
		b64, err := recordTraceB64(name, opts.Budget)
		if err != nil {
			return nil, err
		}
		if err := addCall("score", map[string]any{
			"trace_b64": b64, "strategy": "profile",
		}); err != nil {
			return nil, err
		}
	}

	// The indirect replication family rides every load run on its own
	// dispatch workloads; check:true routes each through the structural
	// clustering verifier, so a selfcheck also proves the second family
	// sound end to end.
	for _, w := range bench.IndirectWorkloads() {
		if err := addCall("replicate", map[string]any{
			"workload": w.Name, "budget": opts.Budget, "family": "indirect", "check": true,
		}); err != nil {
			return nil, err
		}
	}

	client := &http.Client{Timeout: opts.Timeout}
	report := &LoadReport{PerEndpoint: map[string]int{}}
	var mu sync.Mutex
	var firstErr error
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// canonical[i] is call i's first response body; repeats compare
	// against it.
	canonical := make([][]byte, len(calls))
	var canonMu sync.Mutex

	type job struct{ call, repeat int }
	jobs := make(chan job)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				c := calls[j.call]
				body, retries, err := postWithRetry(ctx, client, baseURL+"/v1/"+c.endpoint, c.body)
				if err != nil {
					setErr(fmt.Errorf("%s: %w", c.endpoint, err))
					continue
				}
				canonMu.Lock()
				if canonical[j.call] == nil {
					canonical[j.call] = body
				} else if !bytes.Equal(canonical[j.call], body) {
					setErr(fmt.Errorf("%s: response bytes differ between repeats for body %s",
						c.endpoint, calls[j.call].body))
				}
				canonMu.Unlock()
				mu.Lock()
				report.Requests++
				report.Retried429 += retries
				report.PerEndpoint[c.endpoint]++
				report.ResponseBytes += int64(len(body))
				mu.Unlock()
			}
		}()
	}
	for r := 0; r < opts.Repeats; r++ {
		for i := range calls {
			select {
			case jobs <- job{call: i, repeat: r}:
			case <-ctx.Done():
				close(jobs)
				wg.Wait()
				return report, ctx.Err()
			}
		}
	}
	close(jobs)
	wg.Wait()
	report.Seconds = time.Since(start).Seconds()
	if firstErr != nil {
		return report, firstErr
	}
	return report, nil
}

// postWithRetry POSTs body, honouring 429 + Retry-After for up to ~30
// attempts: backpressure is part of the service contract, not a failure.
func postWithRetry(ctx context.Context, client *http.Client, url string, body []byte) ([]byte, int, error) {
	retries := 0
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, retries, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return nil, retries, err
		}
		respBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, retries, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return respBody, retries, nil
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				return nil, retries, errors.New("429 without Retry-After")
			}
			retries++
			if retries > 30 {
				return nil, retries, errors.New("still overloaded after 30 retries")
			}
			select {
			case <-time.After(50 * time.Millisecond):
			case <-ctx.Done():
				return nil, retries, ctx.Err()
			}
		default:
			return nil, retries, fmt.Errorf("status %d: %s", resp.StatusCode, respBody)
		}
	}
}

// recordTraceB64 records a workload's branch trace locally and returns it
// as a base64 BLTRACE1 stream — the client side of the upload path.
func recordTraceB64(workload string, budget uint64) (string, error) {
	w, err := bench.ByName(workload)
	if err != nil {
		return "", err
	}
	c, err := bench.Compile(w)
	if err != nil {
		return "", err
	}
	m := interp.New(c.Prog)
	m.MaxBranches = budget
	_ = m.SetGlobal("wscale", 1<<30)
	slab := trace.NewSlab(int(budget))
	m.Rec = slab
	if _, err := m.Run(); err != nil && !errors.Is(err, interp.ErrLimit) {
		return "", err
	}
	slab.Seal()
	var buf bytes.Buffer
	if _, err := slab.WriteTo(&buf); err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes()), nil
}
