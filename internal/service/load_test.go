package service_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/loadgen"
	"repro/internal/service"
)

// This file is an external test package so it can drive the server with
// internal/loadgen, which itself imports service.

// TestConcurrentClients is the race-detector test: many goroutines hammer
// all endpoints through the load harness, sharing the artifact store and
// engine counters, while /metrics is scraped concurrently.
func TestConcurrentClients(t *testing.T) {
	s, err := service.New(service.Config{CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
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
	report, err := loadgen.Load(context.Background(), ts.URL, loadgen.LoadOptions{
		Workloads:   []string{"cc", "predict", "compress"},
		Budget:      5_000,
		Concurrency: 12,
		Repeats:     4,
	})
	close(done)
	scrape.Wait()
	if err != nil {
		t.Fatalf("load: %v (report: %v)", err, report)
	}
	// Six distinct calls per workload: analyze, profile, machines,
	// replicate, score, and the uploaded-trace score — plus one indirect
	// replicate per dispatch workload.
	if want := (3*6 + len(bench.IndirectWorkloads())) * 4; report.Requests != want {
		t.Fatalf("Requests = %d, want %d", report.Requests, want)
	}
}
