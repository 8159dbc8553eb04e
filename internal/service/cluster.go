package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// ForwardedHeader marks a request proxied by a cluster peer. A forwarded
// request is always served locally — one hop at most, so a stale or
// disagreeing ring view can never bounce a request in a loop.
const ForwardedHeader = "X-Kralld-Forwarded"

// RouteKey returns a request's cluster placement key: the content key of
// the artifact it records or replays, which is also what every derived
// product (profile, machines, score) hangs off. Requests with no stable
// placement — uploaded traces, malformed program selection — return ""
// and are served wherever they land. defaultBudget must be the serving
// cluster's DefaultBudget so client-side routing agrees with the ring.
func RouteKey(req *Request, defaultBudget uint64) string {
	if req.uploaded() {
		return ""
	}
	var progKey string
	switch {
	case req.Workload != "" && req.Source != "":
		return ""
	case req.Workload != "":
		progKey = contentKey("prog", "workload", req.Workload)
	case req.Source != "":
		progKey = contentKey("prog", "source", req.Source)
	default:
		return ""
	}
	b := req.Budget
	if b == 0 {
		b = defaultBudget
	}
	return artifactKey(progKey, b, req)
}

// artifactKey is the one place the artifact content key is built;
// artifactFor (serving) and RouteKey (placement) must never disagree.
func artifactKey(progKey string, budget uint64, req *Request) string {
	return contentKey("art", progKey, field(budget, req.Seed, req.Scale))
}

// maybeForward proxies the request to the healthy ring owner of its
// placement key, if that is another node. It reports whether a response
// was written. Transport failures and peer-side 5xx degrade to serving
// locally — a dead or sick peer costs capacity, never availability.
func (s *Server) maybeForward(w http.ResponseWriter, r *http.Request, name string, req *Request, start time.Time) bool {
	if s.cluster == nil || r.Header.Get(ForwardedHeader) != "" {
		return false
	}
	key := RouteKey(req, s.cfg.DefaultBudget)
	if key == "" {
		return false
	}
	owner := s.cluster.Owner(key)
	if s.cluster.IsSelf(owner) {
		return false
	}
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	preq, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/v1/"+name, bytes.NewReader(body))
	if err != nil {
		return false
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set(ForwardedHeader, s.cluster.Self())
	resp, err := s.forwardClient.Do(preq)
	if err != nil {
		s.cluster.CountForward(err)
		s.log.Warn("forward failed, serving locally", "endpoint", name, "owner", owner, "error", err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		s.cluster.CountForward(errStatus(resp.StatusCode))
		s.log.Warn("forward answered 5xx, serving locally", "endpoint", name, "owner", owner, "code", resp.StatusCode)
		return false
	}
	s.cluster.CountForward(nil)
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		// The peer accepted the request but the relay broke mid-body; the
		// response writer may be torn, so all we can do is fail this hop.
		s.writeError(w, name, err, start)
		return true
	}
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(out)
	s.metrics.observe(name, resp.StatusCode, time.Since(start))
	s.log.Debug("forwarded", "endpoint", name, "owner", owner, "code", resp.StatusCode)
	return true
}

type statusError int

func (e statusError) Error() string { return http.StatusText(int(e)) }

func errStatus(code int) error { return statusError(code) }

// fetchFromOwner is the tieredStore's peer-fetch hook: on a local miss
// for an artifact this node does not own, ask the healthy owner for the
// stored bytes instead of re-recording.
func (s *Server) fetchFromOwner(key string) ([]byte, bool) {
	if s.cluster == nil {
		return nil, false
	}
	owner := s.cluster.Owner(key)
	if s.cluster.IsSelf(owner) {
		return nil, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
	defer cancel()
	data, err := s.cluster.FetchArtifact(ctx, owner, key)
	if err != nil {
		s.log.Debug("peer artifact fetch failed", "key", key, "owner", owner, "error", err)
		return nil, false
	}
	return data, true
}

// handleInternalArtifact serves GET /v1/internal/artifact/{key}: the raw
// disk payload of an artifact, for peers. 404 when the disk tier is off
// or the key is not resident — the peer then computes it itself.
func (s *Server) handleInternalArtifact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "use GET", http.StatusMethodNotAllowed)
		return
	}
	esc := strings.TrimPrefix(r.URL.EscapedPath(), "/v1/internal/artifact/")
	key, err := url.PathUnescape(esc)
	if err != nil {
		http.Error(w, "bad key", http.StatusBadRequest)
		return
	}
	data, ok := s.store.artifactPayload(key)
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

// rateLimiter is a token bucket capping locally-admitted requests per
// second. Its purpose is capacity partitioning, not fairness: with every
// node capped, cluster capacity is node count × MaxRPS, which is what
// makes multi-node scaling measurable on a host whose CPU a single node
// can saturate alone.
type rateLimiter struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newRateLimiter(rps float64) *rateLimiter {
	burst := rps / 10
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{rate: rps, burst: burst, tokens: burst, last: time.Now()}
}

// allow consumes one token if available.
func (l *rateLimiter) allow() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	l.last = now
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	if l.tokens < 1 {
		return false
	}
	l.tokens--
	return true
}
