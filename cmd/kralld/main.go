// Command kralld is the long-running prediction service: it serves the
// profile → state-machine → replication pipeline over HTTP/JSON. See
// SERVICE.md for the API.
//
// Usage:
//
//	kralld [-addr :8723] [-workers N] [-limit N] [-timeout 30s]
//	       [-budget N] [-maxbudget N] [-cache N] [-shards N] [-maxbatch N]
//	       [-drain 10s] [-quiet]
//
// -addr is a TCP address, or fd:N to serve a listening socket inherited
// from the parent process as descriptor N (krallload -nodes hands each
// node its listener as fd:3, so it knows every node's URL before any
// node starts).
//
// The daemon drains gracefully on SIGINT/SIGTERM: the listener closes
// immediately and in-flight requests get -drain to finish.
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "kralld:", err)
		os.Exit(1)
	}
}

func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("kralld", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8723", "listen address, or fd:N for an inherited listening socket")
		workers   = fs.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
		limit     = fs.Int("limit", 0, "max in-flight requests per endpoint (0 = 2×workers)")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-request deadline")
		budget    = fs.Uint64("budget", 200_000, "default branch budget per run")
		maxBudget = fs.Uint64("maxbudget", 5_000_000, "hard cap on requested budgets")
		cacheSize = fs.Int("cache", 128, "artifact store entries")
		shards    = fs.Int("shards", 0, "artifact store shards, rounded up to a power of two, at most 4096 (0 = 8)")
		maxBatch  = fs.Int("maxbatch", 0, "max items per /v1/batch request (0 = 64)")
		diskDir   = fs.String("disk", "", "disk artifact tier directory (empty = memory only)")
		diskMax   = fs.Int64("disk-max-bytes", 0, "disk tier byte budget (0 = 256 MiB)")
		fsync     = fs.Bool("fsync", false, "fsync disk-tier writes before rename")
		self      = fs.String("self", "", "this node's base URL for cluster peers (enables clustering)")
		peers     = fs.String("peers", "", "comma-separated peer base URLs")
		maxRPS    = fs.Float64("maxrps", 0, "per-node admitted requests/sec cap (0 = uncapped)")
		drain     = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
		quiet     = fs.Bool("quiet", false, "log warnings and errors only")
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

	l, err := listen(*addr)
	if err != nil {
		return err
	}
	srv, err := service.New(cfg)
	if err != nil {
		l.Close()
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

// listen opens the -addr listener: a TCP address, or fd:N for a
// listening socket inherited as descriptor N.
func listen(addr string) (net.Listener, error) {
	n, ok := strings.CutPrefix(addr, "fd:")
	if !ok {
		return net.Listen("tcp", addr)
	}
	fd, err := strconv.Atoi(n)
	if err != nil || fd < 0 {
		return nil, fmt.Errorf("-addr %q: want fd:N, N a descriptor number", addr)
	}
	f := os.NewFile(uintptr(fd), addr)
	defer f.Close()
	l, err := net.FileListener(f)
	if err != nil {
		return nil, fmt.Errorf("-addr %s: %w", addr, err)
	}
	return l, nil
}
