GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test race bench benchjson compare throughput cluster kralld profile fuzz check golden serve loadcheck ci

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The experiment engine's tests (worker pool, single-flight cache,
# parallel/sequential determinism) are the main race-detector targets.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run=NONE .

# Refresh the committed throughput baseline: the full sweep, the service
# throughput harness, and the multi-node scaling round, all into
# BENCH_results.json. The format is documented in EXPERIMENTS.md;
# `make compare` gates against this file.
benchjson: kralld
	$(GO) run ./cmd/krallbench -all -execbench -tracebench -benchjson BENCH_results.json > /dev/null
	$(GO) run ./cmd/krallload -serve -throughput -quiet -benchjson BENCH_results.json
	$(GO) run ./cmd/krallload -throughput -nodes 4 -kralld bin/kralld -noderps 400 -requests 1024 -quiet -benchjson BENCH_results.json

# Measure single vs batched kralld requests/sec over a loopback server.
throughput:
	$(GO) run ./cmd/krallload -serve -throughput

# Multi-node scaling: one rate-capped kralld process vs a 4-process
# consistent-hash cluster of them, reporting aggregate req/s scaling.
cluster: kralld
	$(GO) run ./cmd/krallload -throughput -nodes 4 -kralld bin/kralld -noderps 400 -requests 1024

# The kralld binary that krallload -nodes runs as each node.
kralld:
	$(GO) build -o bin/kralld ./cmd/kralld

# Bench-regression gate: measure the working tree into bench-new.json and
# fail if throughput dropped >15% below the committed baseline.
compare: kralld
	$(GO) run ./cmd/krallbench -all -execbench -benchjson bench-new.json > /dev/null
	$(GO) run ./cmd/krallload -serve -throughput -quiet -benchjson bench-new.json
	$(GO) run ./cmd/krallload -throughput -nodes 4 -kralld bin/kralld -noderps 400 -requests 1024 -quiet -benchjson bench-new.json
	$(GO) run ./cmd/krallbench -compare BENCH_results.json bench-new.json -tolerance 0.15

# CPU/heap profiles of the full krallbench sweep; inspect with
# `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) run ./cmd/krallbench -all -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null

# Short smoke of the BL front-end fuzzer; crashers land in
# internal/lang/testdata/fuzz. Raise FUZZTIME for a real session.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/lang

# Static analysis: lint the example programs and verify that replicating
# each one preserves replication equivalence (krallcheck), then fuzz the
# verifier for false positives on generated programs.
check:
	$(GO) run ./cmd/krallcheck examples/bl/*.bl
	$(GO) test -run='^$$' -fuzz=FuzzVerify -fuzztime=$(FUZZTIME) ./internal/analysis

# Regenerate the committed krallbench golden files after an intended
# output change. The service's golden JSON responses and the replicate and
# krallcheck stdout goldens regenerate the same way.
golden:
	$(GO) test ./cmd/krallbench -run TestGolden -update
	$(GO) test ./internal/service -run TestGolden -update
	$(GO) test ./cmd/replicate ./cmd/krallcheck -run TestGoldenOutput -update

# Run the prediction service; see SERVICE.md for the API.
serve:
	$(GO) run ./cmd/kralld -addr :8723

# Boot kralld in-process on a loopback port, drive every endpoint with
# the load client (asserting byte-stable responses and 429 backpressure),
# and leave a /metrics snapshot in kralld-metrics.txt.
loadcheck:
	$(GO) run ./cmd/krallload -serve -quiet -metrics-out kralld-metrics.txt

ci:
	./ci.sh
