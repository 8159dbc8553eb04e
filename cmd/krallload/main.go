// Command krallload drives a kralld over HTTP. Its default mode fires
// every pipeline endpoint for the chosen workloads, repeats each request,
// and fails unless all repeats return byte-identical responses and every
// overload is a proper 429 + Retry-After. With -throughput it instead
// measures requests/sec and branches/sec twice over the same request mix
// — one sub-request per POST, then -batch sub-requests per POST
// /v1/batch — and can merge the result into a krallbench-results/v1
// document for the CI bench-regression gate (krallbench -compare) to
// watch.
//
// Usage:
//
//	krallload [-addr http://localhost:8723 | -serve] [-workloads a,b]
//	          [-budget N] [-repeats N] [-concurrency N] [-metrics-out file]
//	krallload -throughput [-batch N] [-requests N] [-benchjson file]
//	          [-addr URL | -serve] [-workloads a,b] [-budget N]
//	          [-concurrency N] [-metrics-out file] [-quiet]
//	krallload -throughput -nodes N -kralld path [-noderps R] [-requests N]
//	          [-benchjson file] [-workloads a,b] [-budget N] [-quiet]
//
// -serve boots kralld in-process on a loopback port instead of talking
// to an external daemon, so CI needs no separate server process;
// `krallload -serve -quiet -metrics-out kralld-metrics.txt` is the
// service's CI smoke. -metrics-out writes the server's /metrics snapshot
// after the run.
//
// -nodes N ignores -addr/-serve: it runs the kralld binary at -kralld
// as real processes (one rate-capped node, then an N-node
// consistent-hash cluster of them) and reports the aggregate
// requests/sec scaling — the "cluster" part of the service section.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/results"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "krallload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("krallload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "http://localhost:8723", "kralld base URL")
		serve       = fs.Bool("serve", false, "boot kralld in-process on a loopback port instead of using -addr")
		workloads   = fs.String("workloads", "", "comma-separated workload names (default: all)")
		budget      = fs.Uint64("budget", 20_000, "branch budget per request")
		repeats     = fs.Int("repeats", 3, "times each request fires (responses must be byte-identical)")
		concurrency = fs.Int("concurrency", 0, "in-flight requests (default 8, or 4 with -throughput)")
		throughput  = fs.Bool("throughput", false, "measure single vs batched requests/sec instead of the stability sweep")
		batch       = fs.Int("batch", 8, "with -throughput, sub-requests per POST /v1/batch in the batched phase (at least 2)")
		requests    = fs.Int("requests", 512, "with -throughput, sub-requests per phase")
		benchjson   = fs.String("benchjson", "", "with -throughput, merge the service section into this krallbench-results/v1 `file`")
		quiet       = fs.Bool("quiet", false, "print only the final summary line")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to `file` (client and -serve server share the process)")
		metricsOut  = fs.String("metrics-out", "", "after the run, write the server's /metrics snapshot to `file` (not with -nodes)")
		nodes       = fs.Int("nodes", 0, "with -throughput, measure 1-node vs N-node scaling with kralld processes")
		nodeRPS     = fs.Float64("noderps", 400, "with -nodes, per-node admitted requests/sec cap")
		kralld      = fs.String("kralld", "", "with -nodes, the kralld `binary` each node runs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case *nodes > 0 && !*throughput:
		return fmt.Errorf("-nodes requires -throughput")
	case *nodes > 0 && *kralld == "":
		return fmt.Errorf("-nodes requires -kralld")
	case *nodes > 0 && *metricsOut != "":
		return fmt.Errorf("-metrics-out does not apply to -nodes")
	case *batch < 2:
		return fmt.Errorf("-batch must be at least 2, got %d", *batch)
	case *requests < 1:
		return fmt.Errorf("-requests must be positive, got %d", *requests)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	names := workloadNames(*workloads)
	topts := throughputOptions{
		workloads:   names,
		budget:      *budget,
		batchSize:   *batch,
		requests:    *requests,
		concurrency: *concurrency,
	}
	if *nodes > 0 {
		return runClusterBench(ctx, *kralld, *nodes, *nodeRPS, topts, *benchjson, *quiet, stdout, stderr)
	}

	base := *addr
	if *serve {
		shutdown, served, err := bootLocal(*quiet, stderr, &base)
		if err != nil {
			return err
		}
		defer func() {
			shutdown()
			if serr := <-served; serr != nil && serr != http.ErrServerClosed {
				fmt.Fprintln(stderr, "krallload: local kralld exit:", serr)
			}
		}()
	}

	var err error
	if *throughput {
		if topts.concurrency == 0 {
			topts.concurrency = 4
		}
		err = runThroughput(ctx, base, topts, *benchjson, *quiet, stdout)
	} else {
		if *concurrency == 0 {
			*concurrency = 8
		}
		var report *loadReport
		report, err = load(ctx, base, loadOptions{
			workloads:   names,
			budget:      *budget,
			repeats:     *repeats,
			concurrency: *concurrency,
		})
		if report != nil {
			fmt.Fprintln(stdout, report)
		}
	}
	// The snapshot is taken after a failed run too: it is what shows why.
	if *metricsOut != "" {
		if merr := snapshotMetrics(base, *metricsOut); err == nil && merr != nil {
			err = fmt.Errorf("-metrics-out: %w", merr)
		}
	}
	return err
}

// workloadNames splits the -workloads list; empty means the whole
// catalog.
func workloadNames(list string) []string {
	if list != "" {
		return strings.Split(list, ",")
	}
	var names []string
	for _, w := range bench.Workloads() {
		names = append(names, w.Name)
	}
	return names
}

// bootLocal starts an in-process kralld on a loopback port, pointing
// *base at it. Its service.Config is the zero value, whose defaults are
// kralld's flag defaults. The returned shutdown cancels its serve
// context; served yields the Serve error once drained.
func bootLocal(quiet bool, stderr io.Writer, base *string) (func(), chan error, error) {
	level := slog.LevelInfo
	if quiet {
		level = slog.LevelWarn
	}
	srv, err := service.New(service.Config{
		Logger: slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level})),
	})
	if err != nil {
		return nil, nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	*base = "http://" + l.Addr().String()
	sctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(sctx, l, 2*time.Second) }()
	return cancel, served, nil
}

// snapshotMetrics writes the server's /metrics page to path.
func snapshotMetrics(base, path string) error {
	resp, err := http.Get(strings.TrimRight(base, "/") + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// runThroughput runs the throughput harness, prints the two phases, and
// optionally merges the service section into a results document.
func runThroughput(ctx context.Context, base string, opts throughputOptions, benchjson string, quiet bool, stdout io.Writer) error {
	svc, err := measureThroughput(ctx, base, opts)
	if err != nil {
		return err
	}
	if !quiet {
		printPhase(stdout, "single", &svc.Single)
		printPhase(stdout, "batch", &svc.Batch)
	}
	fmt.Fprintf(stdout, "throughput: batch=%d speedup %.2fx (%.1f -> %.1f req/s)\n",
		svc.Batch.BatchSize, svc.Speedup, svc.Single.RequestsPerSecond, svc.Batch.RequestsPerSecond)

	if benchjson == "" {
		return nil
	}
	if err := mergeInto(benchjson, func(doc *results.Document) { doc.Service = svc }); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "service section written to %s\n", benchjson)
	return nil
}

// mergeInto reads the krallbench-results/v1 document at path (a fresh
// one if there is none yet: no sweep has run), lets set fill in its
// section, and writes it back.
func mergeInto(path string, set func(*results.Document)) error {
	doc, err := results.Read(path)
	if os.IsNotExist(err) {
		doc, err = &results.Document{Schema: results.Schema}, nil
	}
	if err != nil {
		return err
	}
	set(doc)
	return results.Write(path, doc)
}

func printPhase(w io.Writer, name string, ph *results.Phase) {
	fmt.Fprintf(w, "%-6s batch=%-3d %6d requests in %4d posts, %6.2fs: %8.1f req/s, %12.0f branches/s\n",
		name, ph.BatchSize, ph.Requests, ph.HTTPPosts, ph.Seconds, ph.RequestsPerSecond, ph.BranchesPerSecond)
	for _, l := range ph.Latency {
		fmt.Fprintf(w, "       %-10s p50 %8.2fms  p99 %8.2fms\n", l.Endpoint, l.P50Millis, l.P99Millis)
	}
}
