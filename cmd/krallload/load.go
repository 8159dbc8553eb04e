package main

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
	"repro/internal/core"
)

const (
	// machineStates is the machine size sent with machines and replicate
	// requests.
	machineStates = 4
	// httpTimeout bounds one HTTP round trip.
	httpTimeout = 60 * time.Second
)

// loadOptions parameterises load, the default mode's stability sweep.
type loadOptions struct {
	workloads   []string // catalog programs to drive
	budget      uint64   // branch budget sent with every request
	concurrency int      // in-flight requests
	// repeats is how many times each distinct request fires; all repeats
	// must return byte-identical bodies.
	repeats int
}

// loadReport summarises one load run.
type loadReport struct {
	requests      int
	retried429    int
	perEndpoint   map[string]int
	responseBytes int64
	seconds       float64
}

func (r *loadReport) String() string {
	eps := make([]string, 0, len(r.perEndpoint))
	for ep := range r.perEndpoint {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d requests in %.2fs (%d retried after 429, %d response bytes)",
		r.requests, r.seconds, r.retried429, r.responseBytes)
	for _, ep := range eps {
		fmt.Fprintf(&sb, "\n  %-10s %d ok", ep, r.perEndpoint[ep])
	}
	return sb.String()
}

// loadCall is one distinct request: endpoint plus body. Each fires
// repeats times; the responses must agree byte-for-byte.
type loadCall struct {
	endpoint string
	body     []byte
}

// load drives the catalog workloads through a running kralld concurrently
// and asserts the service contract: every endpoint answers 200 with
// byte-stable JSON, and overload shows up only as 429 + Retry-After
// (which the client honours and retries). It is krallload's default mode,
// the in-process smoke that CI runs with -serve, and runs under
// go test -race in TestConcurrentClients.
func load(ctx context.Context, baseURL string, opts loadOptions) (*loadReport, error) {
	baseURL = strings.TrimRight(baseURL, "/")
	var calls []loadCall
	addCall := func(endpoint string, req map[string]any) {
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // strings, numbers and bools always marshal
		}
		calls = append(calls, loadCall{endpoint: endpoint, body: body})
	}
	for _, name := range opts.workloads {
		addCall("profile", map[string]any{"workload": name, "budget": opts.budget})
		// The static analysis endpoint takes no budget: its response is a
		// pure function of the program.
		addCall("analyze", map[string]any{"workload": name})
		addCall("machines", map[string]any{
			"workload": name, "budget": opts.budget, "states": machineStates,
		})
		// check:true routes every replicate through the
		// replication-equivalence verifier, so the smoke also proves the
		// transform sound on the whole catalog.
		addCall("replicate", map[string]any{
			"workload": name, "budget": opts.budget, "states": machineStates, "check": true,
		})
		addCall("score", map[string]any{
			"workload": name, "budget": opts.budget, "strategy": "twobit",
		})
		// Exercise the upload path: record the workload locally and score
		// the uploaded trace. The server must report exactly the events we
		// recorded.
		b64, err := recordTraceB64(name, opts.budget)
		if err != nil {
			return nil, err
		}
		addCall("score", map[string]any{"trace_b64": b64, "strategy": "profile"})
	}

	// The indirect replication family rides every load run on its own
	// dispatch workloads; check:true routes each through the structural
	// clustering verifier, so the smoke also proves the second family
	// sound end to end.
	for _, w := range bench.IndirectWorkloads() {
		addCall("replicate", map[string]any{
			"workload": w.Name, "budget": opts.budget, "family": "indirect", "check": true,
		})
	}

	client := &http.Client{Timeout: httpTimeout}
	report := &loadReport{perEndpoint: map[string]int{}}
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
	for w := 0; w < opts.concurrency; w++ {
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
				report.requests++
				report.retried429 += retries
				report.perEndpoint[c.endpoint]++
				report.responseBytes += int64(len(body))
				mu.Unlock()
			}
		}()
	}
	for r := 0; r < opts.repeats; r++ {
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
	report.seconds = time.Since(start).Seconds()
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
	rec, err := core.Record(context.Background(), c.Prog, core.Cell{Budget: budget}.Fill(c.Prog, 0, core.FullScale))
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if _, err := rec.Slab.WriteTo(&buf); err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes()), nil
}
