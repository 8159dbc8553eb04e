// Package service implements kralld, the long-running prediction service:
// an HTTP/JSON daemon that serves the paper's profile → state-machine →
// replication pipeline over the wire. It accepts programs in the BL
// language and uploaded BLTRACE1 trace slabs, and exposes
//
//	POST /v1/profile    profile a program's branches
//	POST /v1/machines   select branch prediction state machines
//	POST /v1/replicate  replicate code and measure the transformed program
//	POST /v1/score      score a trace against a prediction strategy
//	GET  /metrics       engine counters and request latency histograms
//	GET  /healthz       liveness
//
// Every response carries schema "kralld/v1" and is byte-stable: the same
// request body always produces the same response bytes, which is what lets
// the load client (Load) assert correctness under concurrency. Expensive
// intermediates — compiled programs and recorded trace slabs — live in a
// content-addressed LRU store shared by all endpoints, so a hot program is
// interpreted once and replayed many times, exactly like the batch
// engine's record-once/replay-many path. The same store holds final
// answers, so a repeated request writes stored bytes (see answer).
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/diskstore"
	"repro/internal/ir"
	"repro/internal/runner"
	"repro/internal/trace"
)

// Schema identifies the response format of every endpoint.
const Schema = "kralld/v1"

// Endpoints lists the POST pipeline endpoints in metrics order; "batch"
// (POST /v1/batch, which multiplexes the five) is metered separately.
var Endpoints = []string{"analyze", "machines", "profile", "replicate", "score"}

// batchEndpoint is the metrics/admission name of POST /v1/batch.
const batchEndpoint = "batch"

// Config parameterises a Server. The zero value is usable: every field
// has a production-shaped default.
type Config struct {
	// Workers is the experiment engine's worker count (0 = GOMAXPROCS).
	Workers int
	// MaxInflight bounds concurrently-served requests per endpoint;
	// excess requests are refused with 429 + Retry-After. 0 = 2×Workers.
	MaxInflight int
	// RequestTimeout bounds one request's total service time, threaded as
	// a context deadline into the interpreter loop (default 30s).
	RequestTimeout time.Duration
	// DefaultBudget is the branch budget applied when a request omits one
	// (default 200k); MaxBudget caps requested budgets (default 5M).
	DefaultBudget, MaxBudget uint64
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// TraceLimits bounds uploaded BLTRACE1 slabs (default: MaxBudget
	// events, 64k sites, MaxBodyBytes bytes). The site cap matters most:
	// scoring sizes per-site tables from the largest site in the trace, so
	// an uncapped upload naming site 2^31-1 would OOM the daemon from a
	// few bytes of input.
	TraceLimits trace.Limits
	// CacheEntries sizes the content-addressed artifact store (default 128);
	// CacheShards splits it into independently locked shards (rounded up to
	// a power of two, at most 4096; default 8). One shard is a single
	// least-recently-used list.
	CacheEntries int
	CacheShards  int
	// MaxBatchItems caps the sub-requests accepted in one /v1/batch call
	// (default 64); BatchWorkers caps the sub-requests a single batch
	// executes concurrently (default: the engine's worker count). A batch
	// may ask for fewer workers than the cap, never more.
	MaxBatchItems int
	BatchWorkers  int
	// DiskDir enables the disk artifact tier: recorded traces and profile
	// bundles persist under this directory and survive restarts and
	// memory-tier eviction. Empty = memory only.
	DiskDir string
	// DiskMaxBytes budgets the disk tier (default 256 MiB); DiskFsync
	// forces fsync-before-rename on every disk write.
	DiskMaxBytes int64
	DiskFsync    bool
	// ClusterSelf enables multi-node serving: this node's own base URL as
	// peers reach it (e.g. "http://127.0.0.1:9301"). ClusterPeers lists
	// the other nodes. Empty ClusterSelf = single node.
	ClusterSelf  string
	ClusterPeers []string
	// ClusterHealth tunes peer probing (zero values = 1s interval, 500ms
	// timeout, 2 consecutive failures to mark down).
	ClusterHealth cluster.HealthOptions
	// MaxRPS caps locally-admitted pipeline requests per second with a
	// token bucket (429 + Retry-After over the cap). 0 = uncapped. Capped
	// nodes partition host capacity, which is what makes multi-node
	// scaling measurable on one machine.
	MaxRPS float64
	// Logger receives structured request/lifecycle lines (nil = discard).
	Logger *slog.Logger
}

func (c *Config) setDefaults() {
	if c.MaxInflight == 0 {
		c.MaxInflight = 2 * runner.New(c.Workers).Workers()
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DefaultBudget == 0 {
		c.DefaultBudget = 200_000
	}
	if c.MaxBudget == 0 {
		c.MaxBudget = 5_000_000
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.TraceLimits == (trace.Limits{}) {
		c.TraceLimits = trace.Limits{MaxEvents: c.MaxBudget, MaxSites: 1 << 16, MaxBytes: c.MaxBodyBytes}
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.CacheShards == 0 {
		c.CacheShards = 8
	}
	if c.MaxBatchItems == 0 {
		c.MaxBatchItems = 64
	}
	if c.BatchWorkers == 0 {
		c.BatchWorkers = runner.New(c.Workers).Workers()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// Server is the kralld HTTP service. Create with New; it is safe for
// concurrent use by any number of requests.
type Server struct {
	cfg     Config
	eng     *runner.Engine
	store   *tieredStore
	cluster *cluster.Cluster
	limiter *rateLimiter
	metrics *metrics
	mux     *http.ServeMux
	sems    map[string]chan struct{}
	log     *slog.Logger
	started time.Time

	// forwardClient carries proxied requests to ring peers.
	forwardClient *http.Client
	// draining flips when Serve begins shutdown; /readyz then answers 503
	// so load balancers stop sending new work while in-flight drains.
	draining atomic.Bool
	// rateLimited counts requests refused by the MaxRPS token bucket.
	rateLimited atomic.Int64

	// verifyOK/verifyFail count replication-equivalence verdicts on
	// /v1/replicate requests that asked for checking — the verifier's,
	// and for a walked clone the walk's too; both are exported on
	// /metrics as krallcheck_{verified,failed}_total.
	verifyOK   atomic.Int64
	verifyFail atomic.Int64
	// mutateClone, when set, rewrites every /v1/replicate clone after
	// the transform, so tests can feed the measurement a miswired clone.
	mutateClone func(*ir.Program)

	// analyzeSites/analyzeDecided count branch sites examined and proven
	// one-way by /v1/analyze (cold runs only; cache hits recompute
	// nothing). Exported as kralld_analyze_{sites,decided}_total.
	analyzeSites   atomic.Int64
	analyzeDecided atomic.Int64
}

// New builds a server. The engine provides bounded job execution and the
// record/replay counters surfaced on /metrics; the content-addressed
// store holds compiled programs and recorded trace slabs in a sharded
// in-memory LRU, optionally backed by the disk tier (Config.DiskDir) and
// the cluster peer fetch (Config.ClusterSelf).
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	metered := append([]string{batchEndpoint}, Endpoints...)
	s := &Server{
		cfg:     cfg,
		eng:     runner.New(cfg.Workers),
		metrics: newMetrics(metered),
		mux:     http.NewServeMux(),
		sems:    map[string]chan struct{}{},
		log:     cfg.Logger,
		started: time.Now(),
	}
	s.store = &tieredStore{mem: runner.NewSharded(cfg.CacheEntries, cfg.CacheShards)}
	if cfg.DiskDir != "" {
		disk, err := diskstore.Open(cfg.DiskDir, diskstore.Options{MaxBytes: cfg.DiskMaxBytes, Fsync: cfg.DiskFsync})
		if err != nil {
			return nil, fmt.Errorf("opening disk tier: %w", err)
		}
		s.store.disk = disk
	}
	if cfg.ClusterSelf != "" {
		cl, err := cluster.New(cluster.Options{
			Self:   cfg.ClusterSelf,
			Peers:  cfg.ClusterPeers,
			Health: cfg.ClusterHealth,
			Logger: cfg.Logger,
		})
		if err != nil {
			return nil, err
		}
		s.cluster = cl
		s.store.fetchPeer = s.fetchFromOwner
		s.forwardClient = &http.Client{Timeout: cfg.RequestTimeout}
	}
	if cfg.MaxRPS > 0 {
		s.limiter = newRateLimiter(cfg.MaxRPS)
	}
	for _, ep := range metered {
		s.sems[ep] = make(chan struct{}, cfg.MaxInflight)
	}
	for _, ep := range Endpoints {
		s.mux.HandleFunc("/v1/"+ep, s.endpoint(ep))
	}
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/internal/artifact/", s.handleInternalArtifact)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s, nil
}

// Start launches the server's background work — today, cluster health
// probing — until ctx is cancelled. Serve calls it; tests that drive the
// Handler directly (httptest) call it themselves when they need probing.
func (s *Server) Start(ctx context.Context) {
	if s.cluster != nil {
		s.cluster.Start(ctx)
	}
}

// Cluster exposes the node's cluster view (nil when clustering is off).
func (s *Server) Cluster() *cluster.Cluster { return s.cluster }

// Engine exposes the server's experiment engine (counters, artifact cache).
func (s *Server) Engine() *runner.Engine { return s.eng }

// Handler is the server's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until ctx is cancelled, then drains:
// the listener closes immediately (new requests are refused), in-flight
// requests get up to drainTimeout to complete. This is the SIGTERM path of
// cmd/kralld.
func (s *Server) Serve(ctx context.Context, l net.Listener, drainTimeout time.Duration) error {
	// Read deadlines stop a slow client from pinning resources: headers
	// must arrive promptly and the whole body within the request budget,
	// so a trickled upload cannot hold a connection (or an admission slot)
	// open indefinitely.
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       s.cfg.RequestTimeout,
	}
	bctx, bcancel := context.WithCancel(context.Background())
	defer bcancel()
	s.Start(bctx)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	s.log.Info("draining", "timeout", drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := srv.Shutdown(dctx)
	<-errc // http.ErrServerClosed from Serve
	stats := s.eng.Stats()
	s.log.Info("engine stats",
		"jobs", stats.Jobs,
		"cache_hits", stats.CacheHits, "cache_misses", stats.CacheMisses,
		"recordings", stats.TraceRecords, "replays", stats.Replays,
		"walks", stats.Walks, "live_runs", stats.LiveRuns)
	return err
}

// httpError carries a status code through the handler return path.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// endpoint wraps one pipeline endpoint with the service plumbing: method
// check, per-endpoint admission (429 + Retry-After on overload), body
// limit, request deadline, metrics and structured logging. The answer
// itself comes from answer, shared with /v1/batch.
func (s *Server) endpoint(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.writeError(w, name, &httpError{http.StatusMethodNotAllowed, "use POST"}, time.Now())
			return
		}
		start := time.Now()

		// Read the whole body before taking an admission slot: a client
		// that trickles its upload must not occupy MaxInflight capacity
		// while doing so (the server's ReadTimeout bounds the trickle).
		var req Request
		body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			s.writeError(w, name, &httpError{code, "decoding request: " + err.Error()}, start)
			return
		}
		// The check=true query knob turns on the replication-equivalence
		// verifier without touching the body — so a curl against a canned
		// request file can still opt in. Only replicate reads Check.
		if v := r.URL.Query().Get("check"); v == "true" || v == "1" {
			req.Check = true
		}

		// Cluster routing: if another healthy node owns this request's
		// artifact, proxy to it (one hop; forwarded requests never
		// re-forward). A failed forward falls through and serves locally.
		if s.maybeForward(w, r, name, &req, start) {
			return
		}

		// The per-node rate cap admits only locally-served work; proxied
		// requests count against the owner's bucket, not this node's.
		if s.limiter != nil && !s.limiter.allow() {
			s.rateLimited.Add(1)
			w.Header().Set("Retry-After", "1")
			s.metrics.rejected(name)
			s.writeError(w, name, &httpError{http.StatusTooManyRequests,
				fmt.Sprintf("node rate cap (%g req/s) exceeded", s.cfg.MaxRPS)}, start)
			return
		}

		select {
		case s.sems[name] <- struct{}{}:
			defer func() { <-s.sems[name] }()
		default:
			// Backpressure: the endpoint is at its concurrency limit.
			// Refuse instead of queueing so load sheds at the edge.
			w.Header().Set("Retry-After", "1")
			s.metrics.rejected(name)
			s.writeError(w, name, &httpError{http.StatusTooManyRequests,
				fmt.Sprintf("endpoint %s at its concurrency limit (%d)", name, s.cfg.MaxInflight)}, start)
			return
		}
		s.metrics.inflight(name, +1)
		defer s.metrics.inflight(name, -1)

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		buf, cached, err := s.answer(ctx, name, &req)
		if err != nil {
			s.writeError(w, name, err, start)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(buf)
		s.metrics.observe(name, http.StatusOK, time.Since(start))
		s.log.Debug("request", "endpoint", name, "code", http.StatusOK, "cached", cached,
			"bytes", len(buf), "elapsed", time.Since(start))
	}
}

// pipelineHandler resolves a pipeline endpoint name (nil if unknown).
func (s *Server) pipelineHandler(name string) func(context.Context, *Request) (any, error) {
	switch name {
	case "analyze":
		return s.handleAnalyze
	case "profile":
		return s.handleProfile
	case "machines":
		return s.handleMachines
	case "replicate":
		return s.handleReplicate
	case "score":
		return s.handleScore
	}
	return nil
}

// answer returns a pipeline endpoint's final JSON answer, trailing newline
// included, and whether it came from the store. Answers are memoised under
// the request's canonical encoding — json.Marshal of the decoded body, so
// whitespace and field order in the client's bytes do not matter — and a
// hit writes stored bytes without running or encoding anything. The
// returned bytes are shared and must not be modified.
//
// Two kinds of request bypass the cache: /v1/replicate, whose checked
// requests must each run the verifier and count its verdict, and uploaded
// traces, which have no content key and whose bodies are too large to be
// worth hashing into one. A fill runs under a context detached from the
// first caller and bounded by RequestTimeout, as artifactFor's recording
// does, so one client disconnecting cannot fail every waiter on the slot;
// errors are not cached.
func (s *Server) answer(ctx context.Context, name string, req *Request) ([]byte, bool, error) {
	h := s.pipelineHandler(name)
	if h == nil {
		return nil, false, badRequest("unknown endpoint %q (want one of analyze, profile, machines, replicate, score)", name)
	}
	if name == "replicate" || req.TraceB64 != "" {
		buf, err := s.encode(ctx, h, req)
		return buf, false, err
	}
	key, err := answerKey(name, req)
	if err != nil {
		return nil, false, err
	}
	miss := false
	buf, err := runner.Cached(s.store, key, func() ([]byte, error) {
		miss = true
		rctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.RequestTimeout)
		defer cancel()
		return s.encode(rctx, h, req)
	})
	switch {
	case miss:
		s.metrics.answerMiss(name)
	case err == nil:
		s.metrics.answerHit(name)
	}
	return buf, !miss && err == nil, err
}

// answerKey is the store key of a request's answer: the endpoint plus the
// request's canonical encoding, which holds every field that can change
// the answer.
func answerKey(name string, req *Request) (string, error) {
	canonical, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	return contentKey("resp", name, string(canonical)), nil
}

// encode runs one pipeline handler as a single engine job — panic-protected,
// counted in the engine's job/time counters, run inline in the calling
// goroutine — and encodes its response, newline included.
func (s *Server) encode(ctx context.Context, h func(context.Context, *Request) (any, error), req *Request) ([]byte, error) {
	out, err := runner.Map(s.eng, []struct{}{{}}, func(int, struct{}) (any, error) { return h(ctx, req) })
	if err != nil {
		return nil, err
	}
	buf, err := json.Marshal(out[0])
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Schema string `json:"schema"`
	Error  string `json:"error"`
}

// statusFor maps a handler error to its HTTP status; shared by the
// single-request error path and the per-item statuses of /v1/batch.
func statusFor(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.code
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log only.
		return 499
	case errors.Is(err, trace.ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusInternalServerError
}

// clientMessage is the error text a client sees. A 5xx is the daemon's
// own fault: its full error, a panicked job's stack trace included, goes
// to the Error log record only.
func clientMessage(code int, err error) string {
	if code >= 500 {
		return "internal error"
	}
	return err.Error()
}

func (s *Server) writeError(w http.ResponseWriter, name string, err error, start time.Time) {
	code := statusFor(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	buf, _ := json.Marshal(errorBody{Schema: Schema, Error: clientMessage(code, err)})
	_, _ = w.Write(append(buf, '\n'))
	s.metrics.observe(name, code, time.Since(start))
	level := slog.LevelWarn
	if code >= 500 {
		level = slog.LevelError
	}
	s.log.Log(context.Background(), level, "request failed",
		"endpoint", name, "code", code, "error", err.Error())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	storeHits, storeMisses := s.store.mem.Counters()
	var disk *diskSnapshot
	if d := s.store.disk; d != nil {
		hits, misses, evictions, putErrors := d.Counters()
		disk = &diskSnapshot{
			entries: d.Len(), bytes: d.Bytes(),
			hits: hits, misses: misses, evictions: evictions, putErrors: putErrors,
		}
	}
	var clu *clusterSnapshot
	if c := s.cluster; c != nil {
		forwards, forwardErrors, peerFetches, peerFetchErrors := c.Counters()
		clu = &clusterSnapshot{
			nodes:           c.Size(),
			peerUp:          map[string]bool{},
			forwards:        forwards,
			forwardErrors:   forwardErrors,
			peerFetches:     peerFetches,
			peerFetchErrors: peerFetchErrors,
			rateLimited:     s.rateLimited.Load(),
		}
		for _, n := range c.Nodes() {
			if !c.IsSelf(n) {
				clu.peerUp[n] = c.PeerUp(n)
			}
		}
	}
	s.metrics.write(w, s.eng.Stats(), storeSnapshot{
		entries: s.store.mem.Len(), hits: storeHits, misses: storeMisses,
		shards: s.store.mem.Shards(),
	}, verifySnapshot{
		verified: s.verifyOK.Load(), failed: s.verifyFail.Load(),
	}, analyzeSnapshot{
		sites: s.analyzeSites.Load(), decided: s.analyzeDecided.Load(),
	}, disk, clu, time.Since(s.started))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"schema\":%q,\"status\":\"ok\"}\n", Schema)
}

// handleReadyz reports readiness for new work: 503 once draining has
// begun, 200 otherwise. Liveness (/healthz) stays green through a drain —
// the process is healthy, it just wants no new requests.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "{\"schema\":%q,\"status\":\"draining\"}\n", Schema)
		return
	}
	fmt.Fprintf(w, "{\"schema\":%q,\"status\":\"ready\"}\n", Schema)
}

// contentKey builds a content-addressed store key: the kind namespace plus
// the hash of every input that determines the artifact.
func contentKey(kind string, parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return kind + "/" + hex.EncodeToString(h.Sum(nil)[:16])
}

// field is a tiny helper for building cache key parts.
func field(vs ...any) string {
	var sb strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&sb, "%v|", v)
	}
	return sb.String()
}
