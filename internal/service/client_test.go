package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/trace"
)

// Client-side helpers for the in-package tests. internal/loadgen has the
// full harness versions; importing it here would form an import cycle.

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

// postRetry POSTs body and returns the 200 response, retrying while the
// server sheds load with 429.
func postRetry(ctx context.Context, url string, body []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			return nil, err
		case resp.StatusCode == http.StatusTooManyRequests && attempt < 30:
			time.Sleep(50 * time.Millisecond)
		case resp.StatusCode != http.StatusOK:
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, out)
		default:
			return out, nil
		}
	}
}
