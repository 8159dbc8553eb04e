package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// BatchItem is one sub-request of POST /v1/batch: a pipeline endpoint
// name plus the same body that endpoint would take on its own.
type BatchItem struct {
	Endpoint string `json:"endpoint"`
	Request
}

// BatchRequest is the body of POST /v1/batch. Items execute concurrently
// over the shared artifact store; results come back in input order.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
	// Workers caps this batch's concurrently executing items (0 = the
	// server's batch worker limit; requests may lower it, never raise it).
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds the whole batch in milliseconds (0 = the server's
	// request timeout; capped by it). Items still pending when it expires
	// answer 504 individually.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// BatchItemResult is one item's outcome: the HTTP status the endpoint
// would have answered alone, plus either its response body or its error.
type BatchItemResult struct {
	Endpoint string          `json:"endpoint"`
	Status   int             `json:"status"`
	Error    string          `json:"error,omitempty"`
	Body     json.RawMessage `json:"body,omitempty"`
}

// BatchResponse answers /v1/batch. Items are in input order regardless of
// completion order, so responses stay byte-stable under concurrency.
type BatchResponse struct {
	SchemaV string            `json:"schema"`
	Kind    string            `json:"kind"`
	OK      int               `json:"ok"`
	Failed  int               `json:"failed"`
	Items   []BatchItemResult `json:"items"`
}

// handleBatch is POST /v1/batch: decode once, admit once, then run every
// item over a bounded worker pool sharing the sharded artifact store.
// Batching exists to amortise per-request overhead — connection handling,
// admission, body framing — across many pipeline calls, which is what
// lets a client sustain the store's throughput instead of the HTTP
// stack's. Admission is per batch (the "batch" semaphore); item
// concurrency is bounded by the server's BatchWorkers, so a batch cannot
// commandeer more parallelism than MaxInflight single requests could.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, batchEndpoint, &httpError{http.StatusMethodNotAllowed, "use POST"}, time.Now())
		return
	}
	start := time.Now()

	var req BatchRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, batchEndpoint, &httpError{code, "decoding request: " + err.Error()}, start)
		return
	}
	if len(req.Items) == 0 {
		s.writeError(w, batchEndpoint, badRequest("batch needs at least one item"), start)
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		s.writeError(w, batchEndpoint, &httpError{http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch has %d items, cap is %d", len(req.Items), s.cfg.MaxBatchItems)}, start)
		return
	}

	select {
	case s.sems[batchEndpoint] <- struct{}{}:
		defer func() { <-s.sems[batchEndpoint] }()
	default:
		w.Header().Set("Retry-After", "1")
		s.metrics.rejected(batchEndpoint)
		s.writeError(w, batchEndpoint, &httpError{http.StatusTooManyRequests,
			fmt.Sprintf("endpoint %s at its concurrency limit (%d)", batchEndpoint, s.cfg.MaxInflight)}, start)
		return
	}
	s.metrics.inflight(batchEndpoint, +1)
	defer s.metrics.inflight(batchEndpoint, -1)

	timeout := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	workers := s.cfg.BatchWorkers
	if req.Workers > 0 && req.Workers < workers {
		workers = req.Workers
	}
	if workers > len(req.Items) {
		workers = len(req.Items)
	}

	results := make([]BatchItemResult, len(req.Items))
	var next atomic.Int64
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(req.Items) {
					return
				}
				results[i] = s.runBatchItem(ctx, &req.Items[i])
			}
		}()
	}
	wg.Wait()

	ok, failed, size := 0, 0, 0
	for i := range results {
		if results[i].Status == http.StatusOK {
			ok++
		} else {
			failed++
		}
		size += len(results[i].Body) + len(results[i].Error) + 64
		s.metrics.observeItem(results[i].Endpoint, results[i].Status)
	}

	// The envelope is assembled by hand: item bodies are already compact
	// JSON from answer, and routing them through a second json.Marshal (as
	// RawMessage fields) would re-validate and re-copy every byte — the
	// dominant per-batch cost for large batches. The layout mirrors
	// BatchResponse exactly; TestBatchMatchesSingle pins item bodies
	// byte-identical to the standalone endpoints.
	var buf bytes.Buffer
	buf.Grow(size + 64)
	fmt.Fprintf(&buf, `{"schema":%q,"kind":"batch","ok":%d,"failed":%d,"items":[`, Schema, ok, failed)
	for i := range results {
		if i > 0 {
			buf.WriteByte(',')
		}
		res := &results[i]
		buf.WriteString(`{"endpoint":`)
		writeJSONString(&buf, res.Endpoint)
		fmt.Fprintf(&buf, `,"status":%d`, res.Status)
		if res.Error != "" {
			buf.WriteString(`,"error":`)
			writeJSONString(&buf, res.Error)
		}
		if len(res.Body) > 0 {
			buf.WriteString(`,"body":`)
			buf.Write(res.Body)
		}
		buf.WriteByte('}')
	}
	buf.WriteString("]}\n")

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
	s.metrics.observe(batchEndpoint, http.StatusOK, time.Since(start))
	s.log.Debug("batch", "items", len(req.Items), "ok", ok, "failed", failed,
		"workers", workers, "bytes", buf.Len(), "elapsed", time.Since(start))
}

// writeJSONString appends s JSON-encoded, matching encoding/json's
// escaping so hand-assembled envelopes stay byte-identical to marshaled
// ones.
func writeJSONString(buf *bytes.Buffer, s string) {
	b, err := json.Marshal(s)
	if err != nil { // a string cannot fail to marshal
		b = []byte(`""`)
	}
	buf.Write(b)
}

// runBatchItem answers one item exactly as its standalone endpoint would,
// through the same answer path: the same status, and the same body bytes
// without the trailing newline.
func (s *Server) runBatchItem(ctx context.Context, item *BatchItem) BatchItemResult {
	res := BatchItemResult{Endpoint: item.Endpoint}
	buf, _, err := s.answer(ctx, item.Endpoint, &item.Request)
	if err != nil {
		res.Status = statusFor(err)
		res.Error = clientMessage(res.Status, err)
		if res.Status >= 500 {
			s.log.Error("batch item failed", "endpoint", item.Endpoint, "code", res.Status, "error", err.Error())
		}
		return res
	}
	res.Status = http.StatusOK
	res.Body = buf[:len(buf)-1]
	return res
}
