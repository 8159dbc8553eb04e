package main

// Multi-node throughput mode: krallload -throughput -nodes N re-execs
// itself as real kralld subprocesses (the hidden -servenode mode),
// measures one rate-capped node, then an N-node consistent-hash cluster
// of them, and reports the aggregate requests/sec scaling. Every node
// carries the same -noderps admission cap, so the cluster's capacity is
// capacity partitioning (nodes × cap) and the scaling number stays
// meaningful on a host a single uncapped node could saturate alone.
//
// Listeners are bound by the parent and passed to each child as fd 3
// (ExtraFiles + net.FileListener): the parent knows every node's URL
// before any child starts, so peers can be wired without a port race.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/results"
	"repro/internal/service"
)

// runServeNode is the child side of -nodes: a kralld serving the
// listener inherited as fd 3 until SIGTERM.
func runServeNode(selfURL, peers string, maxRPS float64, diskDir string, quiet bool, stderr io.Writer) error {
	// Quiet suppresses warnings too: under a deliberate rate cap, 429s
	// are nominal and would otherwise flood the parent's stderr.
	level := slog.LevelInfo
	if quiet {
		level = slog.LevelError
	}
	srv, err := service.New(service.Config{
		MaxRPS:       maxRPS,
		DiskDir:      diskDir,
		ClusterSelf:  selfURL,
		ClusterPeers: splitList(peers),
		Logger:       slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level})),
	})
	if err != nil {
		return err
	}
	f := os.NewFile(3, "inherited-listener")
	if f == nil {
		return fmt.Errorf("-servenode: no inherited listener on fd 3")
	}
	l, err := net.FileListener(f)
	if err != nil {
		return fmt.Errorf("-servenode: fd 3 is not a listener: %w", err)
	}
	f.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Serve(ctx, l, 2*time.Second); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// nodeProc is one spawned kralld subprocess.
type nodeProc struct {
	url string
	cmd *exec.Cmd
}

// stop drains the node: SIGTERM, then SIGKILL if it lingers.
func (p *nodeProc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

// spawnNode starts one -servenode child serving l. The parent's copies
// of the listener are closed after the fork so only the child accepts.
func spawnNode(exe, self string, peers []string, maxRPS float64, diskDir string, l *net.TCPListener, quiet bool, stderr io.Writer) (*nodeProc, error) {
	lf, err := l.File()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-servenode",
		"-maxrps", fmt.Sprint(maxRPS),
		"-disk", diskDir,
	}
	if self != "" {
		args = append(args, "-self", self, "-peers", strings.Join(peers, ","))
	}
	if quiet {
		args = append(args, "-quiet")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	cmd.ExtraFiles = []*os.File{lf}
	url := "http://" + l.Addr().String()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("spawn node %s: %w", url, err)
	}
	lf.Close()
	l.Close()
	return &nodeProc{url: url, cmd: cmd}, nil
}

// waitReady polls the node's /readyz until it answers 200.
func waitReady(ctx context.Context, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s not ready after 10s (last error: %v)", url, err)
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
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

// runClusterBench is the parent side of -nodes: measure one capped node,
// tear it down, measure n capped nodes, and report the scaling.
func runClusterBench(ctx context.Context, n int, nodeRPS float64, opts loadgen.ThroughputOptions, benchjson string, quiet bool, stdout, stderr io.Writer) error {
	if n < 2 {
		return fmt.Errorf("-nodes needs at least 2 nodes, got %d", n)
	}
	if nodeRPS <= 0 {
		return fmt.Errorf("-noderps must be positive, got %v", nodeRPS)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if opts.Concurrency == 0 {
		// Enough in-flight posts to keep every node's token bucket drained;
		// the same width serves the single-node phase so the client side is
		// identical across both measurements.
		opts.Concurrency = 4 * n
	}
	tmp, err := os.MkdirTemp("", "krallload-cluster-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// Phase A: one node under the cap.
	l1, url1, err := loopback()
	if err != nil {
		return err
	}
	p1, err := spawnNode(exe, "", nil, nodeRPS, filepath.Join(tmp, "single"), l1, quiet, stderr)
	if err != nil {
		return err
	}
	single, err := func() (*results.Phase, error) {
		defer p1.stop()
		if err := waitReady(ctx, url1); err != nil {
			return nil, err
		}
		return loadgen.ClusterThroughput(ctx, []string{url1}, opts)
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
		p, err := spawnNode(exe, urls[i], urls, nodeRPS, filepath.Join(tmp, fmt.Sprintf("node%d", i)), l, quiet, stderr)
		if err != nil {
			for _, rest := range listeners[i+1:] {
				rest.Close()
			}
			return err
		}
		procs = append(procs, p)
	}
	for _, u := range urls {
		if err := waitReady(ctx, u); err != nil {
			return err
		}
	}
	multi, err := loadgen.ClusterThroughput(ctx, urls, opts)
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
	doc, err := results.Read(benchjson)
	if os.IsNotExist(err) {
		doc, err = &results.Document{Schema: results.Schema}, nil
	}
	if err != nil {
		return err
	}
	if doc.Service == nil {
		doc.Service = &results.Service{}
	}
	doc.Service.Cluster = clu
	if err := results.Write(benchjson, doc); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cluster section written to %s\n", benchjson)
	return nil
}
