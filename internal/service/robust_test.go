package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/profile"
)

// manySitesSource is a program with n if statements, one branch site
// each, spread over functions of at most 1000 so that compiling it stays
// cheap.
func manySitesSource(n int) string {
	var sb strings.Builder
	sb.WriteString("var x int;\n")
	for f := 0; f*1000 < n; f++ {
		fmt.Fprintf(&sb, "\nfunc f%d() {\n", f)
		for i := f * 1000; i < min(n, (f+1)*1000); i++ {
			sb.WriteString("    if x > 0 { x = x - 1; }\n")
		}
		sb.WriteString("}\n")
	}
	// main calls the last function first, so a short budget already
	// reaches the highest site IDs.
	sb.WriteString("\nfunc main() int {\n")
	for f := (n - 1) / 1000; f >= 0; f-- {
		fmt.Fprintf(&sb, "    f%d();\n", f)
	}
	sb.WriteString("    return x;\n}\n")
	return sb.String()
}

// TestTooManySitesIs400 sends a program with 33,000 branch sites, more
// than a profile's path tables can tell apart, to every endpoint that
// profiles, alone and as a batch item: each must refuse it with a 400
// before recording, not fail with a 5xx.
func TestTooManySitesIs400(t *testing.T) {
	src := manySitesSource(33_000)
	if c, err := lang.Compile(src); err != nil || c.NumberBranches(true) <= profile.MaxSites {
		t.Fatalf("test program does not exceed MaxSites (compile error %v)", err)
	}
	s, ts := newTestServer(t, Config{})
	body, err := json.Marshal(Request{Source: src, Budget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range []string{"profile", "machines", "replicate"} {
		code, out := post(t, ts, ep, string(body))
		if code != http.StatusBadRequest || !bytes.Contains(out, []byte("branch sites")) {
			t.Fatalf("%s: status %d: %.200s", ep, code, out)
		}
	}
	batch, err := json.Marshal(BatchRequest{Items: []BatchItem{
		{Endpoint: "machines", Request: Request{Source: src, Budget: 1000}},
		{Endpoint: "profile", Request: Request{Workload: "cc", Budget: 1000}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	code, out := post(t, ts, "batch", string(batch))
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %.200s", code, out)
	}
	var resp BatchResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if got := resp.Items[0]; got.Status != http.StatusBadRequest || !strings.Contains(got.Error, "branch sites") {
		t.Fatalf("batch item: status %d: %s", got.Status, got.Error)
	}
	if resp.Items[1].Status != http.StatusOK {
		t.Fatalf("healthy batch item: status %d: %s", resp.Items[1].Status, resp.Items[1].Error)
	}
	if recs := s.Engine().Stats().TraceRecords; recs != 1 {
		t.Fatalf("server recorded %d traces, want 1 (only the healthy item)", recs)
	}
}

// TestPanicBodyHasNoStack drives a job that panics through the handler,
// alone and as a batch item: the client gets a 500 whose body says
// "internal error" and holds no goroutine frame, while the Error log
// record keeps the panic's full stack trace.
func TestPanicBodyHasNoStack(t *testing.T) {
	var logs syncBuffer
	s, ts := newTestServer(t, Config{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	s.mutateClone = func(*ir.Program) { panic("clone hook exploded") }
	const req = `{"workload":"compress","budget":5000,"states":3}`
	code, out := post(t, ts, "replicate", req)
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", code, out)
	}
	var eb errorBody
	if err := json.Unmarshal(out, &eb); err != nil || eb.Error != "internal error" {
		t.Fatalf("error body %s (%v), want \"internal error\"", out, err)
	}
	code, out = post(t, ts, "batch", `{"items":[{"endpoint":"replicate","workload":"compress","budget":5000,"states":3}]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, out)
	}
	var resp BatchResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if it := resp.Items[0]; it.Status != http.StatusInternalServerError || it.Error != "internal error" {
		t.Fatalf("batch item: status %d: %q", it.Status, it.Error)
	}
	if bytes.Contains(out, []byte("goroutine")) {
		t.Fatalf("batch body carries a stack trace: %s", out)
	}
	log := logs.String()
	for _, want := range []string{"clone hook exploded", "goroutine", `msg="request failed"`, `msg="batch item failed"`} {
		if !strings.Contains(log, want) {
			t.Errorf("log lacks %q:\n%.2000s", want, log)
		}
	}
}

// syncBuffer is a bytes.Buffer safe to write from handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeDrainsInFlight runs Serve on a real listener, holds a cold
// /v1/replicate request inside its handler, and cancels Serve's context:
// the listener must close at once (new connections refused), the held
// request must still finish with 200, and Serve must return nil within
// its drain timeout.
func TestServeDrainsInFlight(t *testing.T) {
	s := mustNew(t, Config{})
	entered, release := make(chan struct{}), make(chan struct{})
	s.mutateClone = func(*ir.Program) {
		close(entered)
		<-release
	}
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // a failing check must not leave the handler held
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &notifyListener{Listener: inner, closed: make(chan struct{})}
	addr := l.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const drainTimeout = 10 * time.Second
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, l, drainTimeout) }()

	type result struct {
		code int
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/replicate", "application/json",
			strings.NewReader(`{"workload":"compress","budget":5000,"states":3}`))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		done <- result{resp.StatusCode, buf.Bytes(), err}
	}()
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("the request never reached the handler")
	}

	cancel()
	// The listener closes while the request is still held.
	select {
	case <-l.closed:
	case <-time.After(drainTimeout):
		t.Fatal("the listener was not closed on cancel")
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); !errors.Is(err, syscall.ECONNREFUSED) {
		if c != nil {
			c.Close()
		}
		t.Fatalf("dial during drain: %v, want connection refused", err)
	}
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a request in flight", err)
	default:
	}

	unblock()
	r := <-done
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight request: status %d, err %v: %.200s", r.code, r.err, r.body)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(drainTimeout):
		t.Fatal("Serve did not return within its drain timeout")
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("a new connection was accepted after Serve returned")
	}
}

// notifyListener closes closed once the listener itself is closed.
type notifyListener struct {
	net.Listener
	once   sync.Once
	closed chan struct{}
}

func (l *notifyListener) Close() error {
	err := l.Listener.Close()
	l.once.Do(func() { close(l.closed) })
	return err
}
