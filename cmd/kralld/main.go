// Command kralld is the long-running prediction service: it serves the
// profile → state-machine → replication pipeline over HTTP/JSON. See
// SERVICE.md for the API.
//
// Usage:
//
//	kralld [-addr :8723] [-workers N] [-limit N] [-timeout 30s]
//	       [-budget N] [-maxbudget N] [-cache N] [-shards N] [-maxbatch N]
//	       [-drain 10s] [-quiet]
//	kralld -selfcheck [-metrics-out file]
//
// The daemon drains gracefully on SIGINT/SIGTERM: the listener closes
// immediately and in-flight requests get -drain to finish.
//
// -selfcheck boots the server in-process on a loopback port, drives every
// endpoint with the load-generator client (asserting byte-stable
// responses), fetches /metrics, and exits non-zero on any failure. It is
// the CI smoke test.
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
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "kralld:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("kralld", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8723", "listen address")
		workers    = fs.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
		limit      = fs.Int("limit", 0, "max in-flight requests per endpoint (0 = 2×workers)")
		timeout    = fs.Duration("timeout", 30*time.Second, "per-request deadline")
		budget     = fs.Uint64("budget", 200_000, "default branch budget per run")
		maxBudget  = fs.Uint64("maxbudget", 5_000_000, "hard cap on requested budgets")
		cacheSize  = fs.Int("cache", 128, "artifact store entries")
		shards     = fs.Int("shards", 0, "artifact store shards, rounded up to a power of two, at most 4096 (0 = 8)")
		maxBatch   = fs.Int("maxbatch", 0, "max items per /v1/batch request (0 = 64)")
		diskDir    = fs.String("disk", "", "disk artifact tier directory (empty = memory only)")
		diskMax    = fs.Int64("disk-max-bytes", 0, "disk tier byte budget (0 = 256 MiB)")
		fsync      = fs.Bool("fsync", false, "fsync disk-tier writes before rename")
		self       = fs.String("self", "", "this node's base URL for cluster peers (enables clustering)")
		peers      = fs.String("peers", "", "comma-separated peer base URLs")
		maxRPS     = fs.Float64("maxrps", 0, "per-node admitted requests/sec cap (0 = uncapped)")
		drain      = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
		quiet      = fs.Bool("quiet", false, "log warnings and errors only")
		selfcheck  = fs.Bool("selfcheck", false, "boot on a loopback port, run the load client, and exit")
		metricsOut = fs.String("metrics-out", "", "with -selfcheck, write the final /metrics snapshot to `file`")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelWarn
	}
	logger := slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level}))

	cfg := service.Config{
		Workers:        *workers,
		MaxInflight:    *limit,
		RequestTimeout: *timeout,
		DefaultBudget:  *budget,
		MaxBudget:      *maxBudget,
		CacheEntries:   *cacheSize,
		CacheShards:    *shards,
		MaxBatchItems:  *maxBatch,
		DiskDir:        *diskDir,
		DiskMaxBytes:   *diskMax,
		DiskFsync:      *fsync,
		ClusterSelf:    *self,
		ClusterPeers:   splitPeers(*peers),
		MaxRPS:         *maxRPS,
		Logger:         logger,
	}

	if *selfcheck {
		return runSelfcheck(cfg, *drain, *metricsOut, stdout, logger)
	}

	srv, err := service.New(cfg)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("kralld listening", "addr", l.Addr().String(), "schema", service.Schema)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Serve(ctx, l, *drain); err != nil && err != http.ErrServerClosed {
		return err
	}
	logger.Info("kralld stopped")
	return nil
}

// splitPeers parses the -peers flag: comma-separated base URLs, blanks
// and surrounding whitespace dropped.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runSelfcheck is the in-process smoke test: server plus load client in
// one binary, no network assumptions beyond loopback.
func runSelfcheck(cfg service.Config, drain time.Duration, metricsOut string, stdout io.Writer, logger *slog.Logger) error {
	srv, err := service.New(cfg)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	base := "http://" + l.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l, drain) }()

	report, lerr := loadgen.Load(context.Background(), base, loadgen.LoadOptions{
		Budget: 20_000,
	})
	if report != nil {
		fmt.Fprintln(stdout, report)
	}

	var merr error
	if metricsOut != "" {
		merr = snapshotMetrics(base, metricsOut)
	}

	cancel()
	if serr := <-served; serr != nil && serr != http.ErrServerClosed {
		logger.Warn("server exit", "error", serr)
	}
	if lerr != nil {
		return fmt.Errorf("selfcheck load: %w", lerr)
	}
	if merr != nil {
		return fmt.Errorf("selfcheck metrics: %w", merr)
	}
	fmt.Fprintln(stdout, "selfcheck ok")
	return nil
}

func snapshotMetrics(base, path string) error {
	resp, err := http.Get(base + "/metrics")
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
