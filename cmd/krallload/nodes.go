package main

// Multi-node throughput mode: krallload -throughput -nodes N runs the
// kralld binary named by -kralld, measures one rate-capped node, then an
// N-node consistent-hash cluster of them, and reports the aggregate
// requests/sec scaling. Every node carries the same -noderps admission
// cap, so the cluster's capacity is capacity partitioning (nodes × cap)
// and the scaling number stays meaningful on a host a single uncapped
// node could saturate alone.
//
// Listeners are bound by the parent and passed to each child as fd 3
// (ExtraFiles, served by kralld -addr fd:3): the parent knows every
// node's URL before any child starts, so peers can be wired without a
// port race.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/results"
)

// nodeProc is one spawned kralld process.
type nodeProc struct {
	url    string
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd.Wait has returned
}

// stop drains the node: SIGTERM, then SIGKILL if it lingers.
func (p *nodeProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// lockedWriter serialises writes to w.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// spawnNode starts kralld serving l, whose base URL is url. With peers it
// joins the cluster they name; without, it serves alone. l is closed on
// every path: once the child holds its copy, only the child accepts.
func spawnNode(kralld string, l *net.TCPListener, url string, peers []string, maxRPS float64, diskDir string, quiet bool, stderr io.Writer) (*nodeProc, error) {
	defer l.Close()
	lf, err := l.File()
	if err != nil {
		return nil, fmt.Errorf("spawn node %s: %w", url, err)
	}
	defer lf.Close()
	args := []string{"-addr", "fd:3", "-maxrps", fmt.Sprint(maxRPS), "-disk", diskDir}
	if peers != nil {
		args = append(args, "-self", url, "-peers", strings.Join(peers, ","))
	}
	cmd := exec.Command(kralld, args...)
	cmd.ExtraFiles = []*os.File{lf}
	cmd.Stderr = stderr
	if quiet {
		// kralld logs a 429 at Info, so under the deliberate rate cap a
		// -quiet node writes only its warnings and errors.
		cmd.Args = append(cmd.Args, "-quiet")
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn node %s: %w", url, err)
	}
	p := &nodeProc{url: url, cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // its status stays readable in cmd.ProcessState
		close(p.exited)
	}()
	return p, nil
}

// waitReady polls the node's /readyz until it answers 200. It fails at
// once if the node exits first.
func waitReady(ctx context.Context, p *nodeProc) error {
	deadline := time.After(10 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(p.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("node %s exited before it was ready: %v", p.url, p.cmd.ProcessState)
		case <-deadline:
			return fmt.Errorf("node %s not ready after 10s (last error: %v)", p.url, err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// loopback binds a fresh loopback listener and reports its URL.
func loopback() (*net.TCPListener, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return l.(*net.TCPListener), "http://" + l.Addr().String(), nil
}

// runClusterBench measures one capped node, tears it down, measures n
// capped nodes, and reports the scaling.
func runClusterBench(ctx context.Context, kralld string, n int, nodeRPS float64, opts throughputOptions, benchjson string, quiet bool, stdout, stderr io.Writer) error {
	if n < 2 {
		return fmt.Errorf("-nodes needs at least 2 nodes, got %d", n)
	}
	if nodeRPS <= 0 {
		return fmt.Errorf("-noderps must be positive, got %v", nodeRPS)
	}
	if opts.concurrency == 0 {
		// Enough in-flight posts to keep every node's token bucket drained;
		// the same width serves the single-node phase so the client side is
		// identical across both measurements.
		opts.concurrency = 4 * n
	}
	tmp, err := os.MkdirTemp("", "krallload-cluster-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	// Each node's stderr is copied by a goroutine of its own, and the
	// nodes of phase B run at once.
	stderr = &lockedWriter{w: stderr}

	// Phase A: one node under the cap.
	l1, url1, err := loopback()
	if err != nil {
		return err
	}
	p1, err := spawnNode(kralld, l1, url1, nil, nodeRPS, filepath.Join(tmp, "single"), quiet, stderr)
	if err != nil {
		return err
	}
	single, err := func() (*results.Phase, error) {
		defer p1.stop()
		if err := waitReady(ctx, p1); err != nil {
			return nil, err
		}
		return measureCluster(ctx, []string{url1}, opts)
	}()
	if err != nil {
		return fmt.Errorf("single-node phase: %w", err)
	}
	if !quiet {
		printPhase(stdout, "1-node", single)
	}

	// Phase B: n nodes, all listeners bound before any child starts so
	// every node knows the full peer list.
	listeners := make([]*net.TCPListener, n)
	urls := make([]string, n)
	for i := range listeners {
		if listeners[i], urls[i], err = loopback(); err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return err
		}
	}
	var procs []*nodeProc
	defer func() {
		for _, p := range procs {
			p.stop()
		}
	}()
	for i, l := range listeners {
		p, err := spawnNode(kralld, l, urls[i], urls, nodeRPS, filepath.Join(tmp, fmt.Sprintf("node%d", i)), quiet, stderr)
		if err != nil {
			// spawnNode closed l; the later listeners were never handed over.
			for _, rest := range listeners[i+1:] {
				rest.Close()
			}
			return err
		}
		procs = append(procs, p)
	}
	for _, p := range procs {
		if err := waitReady(ctx, p); err != nil {
			return err
		}
	}
	multi, err := measureCluster(ctx, urls, opts)
	if err != nil {
		return fmt.Errorf("%d-node phase: %w", n, err)
	}
	if !quiet {
		printPhase(stdout, fmt.Sprintf("%d-node", n), multi)
	}

	clu := &results.Cluster{
		Nodes:         n,
		PerNodeMaxRPS: nodeRPS,
		SingleNode:    *single,
		MultiNode:     *multi,
	}
	if single.RequestsPerSecond > 0 {
		clu.Scaling = multi.RequestsPerSecond / single.RequestsPerSecond
	}
	fmt.Fprintf(stdout, "cluster: nodes=%d cap=%.0f req/s/node scaling %.2fx (%.1f -> %.1f req/s)\n",
		n, nodeRPS, clu.Scaling, single.RequestsPerSecond, multi.RequestsPerSecond)

	if benchjson == "" {
		return nil
	}
	if err := mergeInto(benchjson, func(doc *results.Document) {
		if doc.Service == nil {
			doc.Service = &results.Service{}
		}
		doc.Service.Cluster = clu
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cluster section written to %s\n", benchjson)
	return nil
}
