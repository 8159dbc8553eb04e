package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// clients is the closed loop's width: the callers of this system
// (krallcheck, krallload, selfcheck, the sweep itself) wait for each reply,
// and the reference machine has two cores.
const clients = 2

// server is an in-process kralld on a loopback listener, with its default
// service.Config, and a client holding at most `clients` keep-alive
// connections to it.
type server struct {
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

func startServer() (*server, error) {
	srv, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ctx, ln, 5*time.Second) }()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = clients
	tr.MaxIdleConnsPerHost = clients
	tr.MaxConnsPerHost = clients
	s.client = &http.Client{Transport: tr, Timeout: time.Minute}
	return s, nil
}

// stop shuts the server down and waits until it has drained.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	s.cancel()
	return <-s.done
}

// post sends one request and returns the response body; any status but
// 200 is an error, including 429 (no retry: a refused request failed).
func (s *server) post(endpoint string, body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.url+"/v1/"+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", endpoint, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// scrape reads the server's /metrics exposition into name → value, summing
// the series of one name across labels.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// sample is one completed operation: its class (program, call or request
// kind), its latency, and when it completed, from the start of its phase.
type sample struct {
	class int
	lat   time.Duration
	at    time.Duration
}

// loopResult is the outcome of one closed-loop phase.
type loopResult struct {
	samples   []sample // successful operations
	next      int      // the number after every operation issued
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
}

// bounds sizes a timed phase: it runs for at least `seconds` and `minOps`
// operations, and never issues more than maxOps (0 = no cap).
type bounds struct {
	seconds        time.Duration
	minOps, maxOps int
}

func (b bounds) more(issued int, elapsed time.Duration) bool {
	if b.maxOps > 0 && issued >= b.maxOps {
		return false
	}
	return issued < b.minOps || elapsed < b.seconds
}

// closedLoop runs op from `clients` goroutines, each sending its next
// operation as soon as the previous one completed, with no think time. The
// operations are numbered from first on. op returns the operation's class,
// the latency it measured, and an error for a failed or wrong answer.
func closedLoop(b bounds, first int, op func(i int) (int, time.Duration, error)) loopResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		res  loopResult
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if !b.more(i, time.Since(start)) {
					return
				}
				class, lat, err := op(first + i)
				at := time.Since(start)
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				} else {
					res.samples = append(res.samples, sample{class, lat, at})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.next = first + int(next.Load())
	return res
}

// timedPost is post with the exchange's latency.
func (s *server) timedPost(c call) ([]byte, time.Duration, error) {
	t0 := time.Now()
	out, err := s.post(c.endpoint, c.body)
	return out, time.Since(t0), err
}
