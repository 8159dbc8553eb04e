package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runner"
)

// latencyBuckets are the histogram upper bounds in seconds, chosen around
// the service's working range: cache hits answer in microseconds, a cold
// 2M-branch recording in tens of milliseconds, a replicate request with
// two live measuring runs in the hundreds.
var latencyBuckets = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// endpointMetrics aggregates one endpoint's request counters.
type endpointMetrics struct {
	inflight atomic.Int64
	rejected atomic.Int64
	// answerHits/answerMisses count answers served from the answer cache
	// and answers computed into it; requests that bypass it count in
	// neither.
	answerHits   atomic.Int64
	answerMisses atomic.Int64
	buckets      [len(latencyBuckets) + 1]atomic.Int64

	mu    sync.Mutex
	codes map[int]int64
	sum   float64
	count int64
}

// metrics is the /metrics registry: per-endpoint request counts by status
// code, in-flight gauges, 429 rejections, latency histograms, answer-cache
// hits and misses, and the per-item outcomes of /v1/batch.
type metrics struct {
	endpoints map[string]*endpointMetrics
	names     []string

	itemMu sync.Mutex
	items  map[string]map[int]int64 // batch sub-request outcomes by endpoint then code
}

func newMetrics(names []string) *metrics {
	m := &metrics{
		endpoints: map[string]*endpointMetrics{},
		names:     append([]string(nil), names...),
		items:     map[string]map[int]int64{},
	}
	sort.Strings(m.names)
	for _, n := range m.names {
		m.endpoints[n] = &endpointMetrics{codes: map[int]int64{}}
	}
	return m
}

// observeItem counts one /v1/batch sub-request outcome.
func (m *metrics) observeItem(endpoint string, code int) {
	m.itemMu.Lock()
	if m.items[endpoint] == nil {
		m.items[endpoint] = map[int]int64{}
	}
	m.items[endpoint][code]++
	m.itemMu.Unlock()
}

func (m *metrics) inflight(name string, delta int64) {
	m.endpoints[name].inflight.Add(delta)
}

func (m *metrics) rejected(name string) {
	m.endpoints[name].rejected.Add(1)
}

func (m *metrics) answerHit(name string)  { m.endpoints[name].answerHits.Add(1) }
func (m *metrics) answerMiss(name string) { m.endpoints[name].answerMisses.Add(1) }

func (m *metrics) observe(name string, code int, elapsed time.Duration) {
	e := m.endpoints[name]
	secs := elapsed.Seconds()
	i := 0
	for ; i < len(latencyBuckets); i++ {
		if secs <= latencyBuckets[i] {
			break
		}
	}
	e.buckets[i].Add(1)
	e.mu.Lock()
	e.codes[code]++
	e.sum += secs
	e.count++
	e.mu.Unlock()
}

// storeSnapshot carries the artifact store's counters into write, both
// the whole-store totals and the per-shard breakdown.
type storeSnapshot struct {
	entries      int
	hits, misses int64
	shards       []runner.ShardCounters
}

// verifySnapshot carries the replication-equivalence verifier's verdict
// counters into write.
type verifySnapshot struct {
	verified, failed int64
}

// analyzeSnapshot carries the static-analysis endpoint's counters into
// write: branch sites examined and sites proven one-way.
type analyzeSnapshot struct {
	sites, decided int64
}

// diskSnapshot carries the disk tier's counters into write (nil when the
// tier is disabled — its metric lines are then omitted entirely).
type diskSnapshot struct {
	entries                            int
	bytes                              int64
	hits, misses, evictions, putErrors int64
}

// clusterSnapshot carries the cluster view into write (nil when
// clustering is off).
type clusterSnapshot struct {
	nodes                        int
	peerUp                       map[string]bool
	forwards, forwardErrors      int64
	peerFetches, peerFetchErrors int64
	rateLimited                  int64
}

// write renders the registry in Prometheus text exposition format, with
// deterministic ordering (sorted endpoints, sorted codes, buckets in
// bound order) so snapshots diff cleanly.
func (m *metrics) write(w io.Writer, eng runner.Stats, store storeSnapshot, verify verifySnapshot, analyze analyzeSnapshot, disk *diskSnapshot, clu *clusterSnapshot, uptime time.Duration) {
	for _, name := range m.names {
		e := m.endpoints[name]
		e.mu.Lock()
		codes := make([]int, 0, len(e.codes))
		for c := range e.codes {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "kralld_requests_total{endpoint=%q,code=\"%d\"} %d\n", name, c, e.codes[c])
		}
		sum, count := e.sum, e.count
		e.mu.Unlock()
		var cum int64
		for i, ub := range latencyBuckets {
			cum += e.buckets[i].Load()
			fmt.Fprintf(w, "kralld_request_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", name, ub, cum)
		}
		cum += e.buckets[len(latencyBuckets)].Load()
		fmt.Fprintf(w, "kralld_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "kralld_request_seconds_sum{endpoint=%q} %g\n", name, sum)
		fmt.Fprintf(w, "kralld_request_seconds_count{endpoint=%q} %d\n", name, count)
		fmt.Fprintf(w, "kralld_inflight{endpoint=%q} %d\n", name, e.inflight.Load())
		fmt.Fprintf(w, "kralld_rejected_total{endpoint=%q} %d\n", name, e.rejected.Load())
		if name != batchEndpoint {
			// Batch items count under their own endpoint.
			fmt.Fprintf(w, "kralld_answer_cache_hits_total{endpoint=%q} %d\n", name, e.answerHits.Load())
			fmt.Fprintf(w, "kralld_answer_cache_misses_total{endpoint=%q} %d\n", name, e.answerMisses.Load())
		}
	}
	m.itemMu.Lock()
	itemEPs := make([]string, 0, len(m.items))
	for ep := range m.items {
		itemEPs = append(itemEPs, ep)
	}
	sort.Strings(itemEPs)
	for _, ep := range itemEPs {
		codes := make([]int, 0, len(m.items[ep]))
		for c := range m.items[ep] {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "kralld_batch_items_total{endpoint=%q,code=\"%d\"} %d\n", ep, c, m.items[ep][c])
		}
	}
	m.itemMu.Unlock()
	// The experiment engine's counters: the same numbers krallbench prints
	// to stderr, exported instead of logged.
	fmt.Fprintf(w, "kralld_engine_workers %d\n", eng.Workers)
	fmt.Fprintf(w, "kralld_engine_jobs_total %d\n", eng.Jobs)
	fmt.Fprintf(w, "kralld_engine_job_seconds_total %g\n", eng.JobTime.Seconds())
	fmt.Fprintf(w, "kralld_engine_cache_hits_total %d\n", eng.CacheHits)
	fmt.Fprintf(w, "kralld_engine_cache_misses_total %d\n", eng.CacheMisses)
	fmt.Fprintf(w, "kralld_engine_trace_records_total %d\n", eng.TraceRecords)
	fmt.Fprintf(w, "kralld_engine_recorded_events_total %d\n", eng.RecordedEvents)
	fmt.Fprintf(w, "kralld_engine_replays_total %d\n", eng.Replays)
	fmt.Fprintf(w, "kralld_engine_replayed_events_total %d\n", eng.ReplayedEvents)
	fmt.Fprintf(w, "kralld_engine_walks_total %d\n", eng.Walks)
	fmt.Fprintf(w, "kralld_engine_live_runs_total %d\n", eng.LiveRuns)
	fmt.Fprintf(w, "kralld_store_entries %d\n", store.entries)
	fmt.Fprintf(w, "kralld_store_hits_total %d\n", store.hits)
	fmt.Fprintf(w, "kralld_store_misses_total %d\n", store.misses)
	fmt.Fprintf(w, "kralld_store_shards %d\n", len(store.shards))
	for i, sh := range store.shards {
		fmt.Fprintf(w, "kralld_store_shard_entries{shard=\"%d\"} %d\n", i, sh.Entries)
		fmt.Fprintf(w, "kralld_store_shard_hits_total{shard=\"%d\"} %d\n", i, sh.Hits)
		fmt.Fprintf(w, "kralld_store_shard_misses_total{shard=\"%d\"} %d\n", i, sh.Misses)
	}
	if disk != nil {
		fmt.Fprintf(w, "kralld_disk_entries %d\n", disk.entries)
		fmt.Fprintf(w, "kralld_disk_bytes %d\n", disk.bytes)
		fmt.Fprintf(w, "kralld_disk_hits_total %d\n", disk.hits)
		fmt.Fprintf(w, "kralld_disk_misses_total %d\n", disk.misses)
		fmt.Fprintf(w, "kralld_disk_evictions_total %d\n", disk.evictions)
		fmt.Fprintf(w, "kralld_disk_put_errors_total %d\n", disk.putErrors)
	}
	if clu != nil {
		fmt.Fprintf(w, "kralld_cluster_ring_nodes %d\n", clu.nodes)
		peers := make([]string, 0, len(clu.peerUp))
		for p := range clu.peerUp {
			peers = append(peers, p)
		}
		sort.Strings(peers)
		for _, p := range peers {
			up := 0
			if clu.peerUp[p] {
				up = 1
			}
			fmt.Fprintf(w, "kralld_cluster_peer_up{peer=%q} %d\n", p, up)
		}
		fmt.Fprintf(w, "kralld_cluster_forwards_total %d\n", clu.forwards)
		fmt.Fprintf(w, "kralld_cluster_forward_errors_total %d\n", clu.forwardErrors)
		fmt.Fprintf(w, "kralld_cluster_peer_fetches_total %d\n", clu.peerFetches)
		fmt.Fprintf(w, "kralld_cluster_peer_fetch_errors_total %d\n", clu.peerFetchErrors)
		fmt.Fprintf(w, "kralld_cluster_rate_limited_total %d\n", clu.rateLimited)
	}
	fmt.Fprintf(w, "kralld_analyze_sites_total %d\n", analyze.sites)
	fmt.Fprintf(w, "kralld_analyze_decided_total %d\n", analyze.decided)
	fmt.Fprintf(w, "krallcheck_verified_total %d\n", verify.verified)
	fmt.Fprintf(w, "krallcheck_failed_total %d\n", verify.failed)
	fmt.Fprintf(w, "kralld_uptime_seconds %g\n", uptime.Seconds())
}
