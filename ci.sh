#!/bin/sh
# CI entry point: everything a PR must pass, grouped into named, timed
# stages, cheapest-first. .github/workflows/ci.yml invokes this script
# directly (plus caching and artifact upload, which only exist there), so
# the two cannot diverge; run locally with `make ci`.
#
# CI_QUICK=1 runs the tier-1 stages only (fmt/vet, build, test) — the fast
# local iteration loop. CI_OFFLINE=1 skips the network-gated tools.
#
# Every stage's wall-clock time is appended to ci-timings.txt and the
# per-stage summary table is printed at the end, pass or fail.
set -eux

TIMINGS=ci-timings.txt
: > "$TIMINGS"

# stage NAME runs stage_NAME, timing it into $TIMINGS. A failing stage
# aborts the script (set -e), but the trap still prints what completed.
stage() {
    _name=$1
    _start=$(date +%s)
    "stage_$_name"
    _end=$(date +%s)
    printf '%-10s %5ss\n' "$_name" "$((_end - _start))" >> "$TIMINGS"
}

print_timings() {
    set +x
    echo
    echo "CI stage timings (wall clock):"
    cat "$TIMINGS"
}
trap print_timings EXIT

stage_fmt() {
    test -z "$(gofmt -l .)"
    go vet ./...
}

stage_build() {
    go build ./...
    # The benchmark is its own module, which the root ./... never compiles;
    # vet it here so an internal API change cannot break it unnoticed.
    (cd cmd/krallperf && go vet ./...)
}

stage_test() {
    go test ./...
    (cd cmd/krallperf && go test ./...)
}

stage_shuffle() {
    # Shuffled re-run flushes out inter-test ordering dependencies, the
    # race run data races.
    go test -shuffle=on ./...
    go test -race ./...
}

stage_static() {
    # Static analysis and known-vulnerability scan, both mandatory and both
    # pinned (the workflow pre-installs them; elsewhere they are fetched on
    # first use). Boxes without network access opt out explicitly with
    # CI_OFFLINE=1 — absence of the tools is no longer a silent skip.
    STATICCHECK_VERSION=2025.1
    GOVULNCHECK_VERSION=v1.1.4
    if [ "${CI_OFFLINE:-0}" = "1" ]; then
        echo "CI_OFFLINE=1: skipping staticcheck and govulncheck (network-gated tools)"
    else
        command -v staticcheck >/dev/null 2>&1 || go install "honnef.co/go/tools/cmd/staticcheck@${STATICCHECK_VERSION}"
        command -v govulncheck >/dev/null 2>&1 || go install "golang.org/x/vuln/cmd/govulncheck@${GOVULNCHECK_VERSION}"
        staticcheck ./...
        govulncheck ./...
    fi
}

stage_suites() {
    # Interpreter op-oracle, exec conformance + golden-trace suites by name
    # (they also run inside `go test ./...`; naming them makes the gate
    # explicit and keeps them from being filtered out by future test
    # pruning).
    go test -run='FullOpMatrix|ConformanceCoversEveryOp|DivisionTraps|FtoIRangeTrap' ./internal/interp
    go test -run='Conformance' ./internal/vm
    go test -run='GoldenTraces' ./internal/bench
}

stage_fuzz() {
    go test -run='^$' -fuzz=FuzzParse -fuzztime=10s ./internal/lang
    # Uploads against the reference decoder, and sealed-slab containers
    # with recomputed CRCs: never a panic, accepted input replays cleanly.
    go test -run='^$' -fuzz=FuzzReadSlab -fuzztime=10s ./internal/trace
    go test -run='^$' -fuzz=FuzzOpenSealed -fuzztime=10s ./internal/trace
    go test -run='^$' -fuzz=FuzzVerify -fuzztime=10s ./internal/analysis
    # Soundness of the static branch analysis: SCCP dead-branch/always-taken
    # claims must never contradict a recorded trace on any generated program.
    go test -run='^$' -fuzz=FuzzStaticSoundness -fuzztime=10s ./internal/analysis
    go test -run='^$' -fuzz=FuzzRunCollectorEquivalence -fuzztime=10s ./internal/bench
    # The loop-machine tree DP must score like the exhaustive enumeration.
    go test -run='^$' -fuzz=FuzzLoopMachineSearch -fuzztime=10s ./internal/statemachine
    # Rescore's run fold must score like the event-by-event replay.
    go test -run='^$' -fuzz=FuzzRescore -fuzztime=10s ./internal/statemachine
    # A replicated clone walked along its original's trace must count
    # exactly like a live run of it, and a miswired clone must fail the walk.
    go test -run='^$' -fuzz=FuzzWalk -fuzztime=10s ./internal/replicate
    # Indirect family: clustered switch programs must stay observably
    # identical to their originals.
    go test -run='^$' -fuzz=FuzzIndirectEquivalence -fuzztime=10s ./internal/indirect
    # The shared dominator core, through cfg.Graph and ssa.Build, against
    # the naive set-based dominator oracle.
    go test -run='^$' -fuzz=FuzzDominators -fuzztime=10s ./internal/cfg
    # kralld's whole handler on mutated bodies for every endpoint and batch:
    # never a 5xx, and a 200 asked again answers the same bytes.
    go test -run='^$' -fuzz=FuzzRequest -fuzztime=10s ./internal/service
}

stage_check() {
    go run ./cmd/krallcheck examples/bl/*.bl
    # Catalog-wide static (profile-free) prediction report, kept as a CI
    # artifact: per-workload accuracy of every static strategy vs the
    # profiled oracle, plus the SCCP-decided site counts.
    go run ./cmd/krallcheck -predict -budget 20000 > krallcheck-predict.txt
    cat krallcheck-predict.txt
}

stage_bench() {
    go test -bench=. -benchtime=1x -run='^$' .
    # Bench-regression gate: run the sweep (including the interpreter
    # throughput measurement and the trace-replay throughput modes),
    # the service throughput harness, and the multi-node scaling round into
    # a fresh document, then compare it against the committed baseline
    # (which gates the cluster's aggregate req/s and its scaling factor
    # too).
    go run ./cmd/krallbench -all -execbench -tracebench -benchjson bench-new.json > /dev/null
    go run ./cmd/krallload -serve -throughput -quiet -benchjson bench-new.json
    go run ./cmd/krallload -throughput -nodes 4 -noderps 400 -requests 1024 -quiet -benchjson bench-new.json
    go run ./cmd/krallbench -compare BENCH_results.json bench-new.json -tolerance 0.15
    # Prove the gate fires: a synthetic 20% regression must fail the compare.
    go run ./cmd/krallbench -compare bench-new.json -degrade 0.8 -out bench-regressed.json
    ! go run ./cmd/krallbench -compare bench-new.json bench-regressed.json
}

stage_service() {
    go run ./cmd/kralld -selfcheck -quiet -metrics-out kralld-metrics.txt
}

stage_cluster() {
    # Cluster smoke: three real kralld processes with per-node disk tiers
    # and consistent-hash peering. The load sweep enters through every node,
    # so a non-owner entry exercises request forwarding and peer artifact
    # fetch; responses must stay byte-stable regardless of entry point. Each
    # node's /metrics snapshot is kept as a CI artifact.
    mkdir -p cluster-smoke
    go build -o cluster-smoke/kralld ./cmd/kralld
    N1=http://127.0.0.1:8741 N2=http://127.0.0.1:8742 N3=http://127.0.0.1:8743
    cluster-smoke/kralld -addr 127.0.0.1:8741 -self "$N1" -peers "$N1,$N2,$N3" -disk cluster-smoke/d1 -quiet & P1=$!
    cluster-smoke/kralld -addr 127.0.0.1:8742 -self "$N2" -peers "$N1,$N2,$N3" -disk cluster-smoke/d2 -quiet & P2=$!
    cluster-smoke/kralld -addr 127.0.0.1:8743 -self "$N3" -peers "$N1,$N2,$N3" -disk cluster-smoke/d3 -quiet & P3=$!
    trap 'kill $P1 $P2 $P3 2>/dev/null || true; print_timings' EXIT
    for url in "$N1" "$N2" "$N3"; do
        for _ in $(seq 1 100); do
            curl -fsS "$url/readyz" >/dev/null 2>&1 && break
            sleep 0.1
        done
        curl -fsS "$url/readyz" >/dev/null
    done
    i=1
    for url in "$N1" "$N2" "$N3"; do
        go run ./cmd/krallload -addr "$url" -quiet
        curl -fsS "$url/metrics" > "kralld-node$i-metrics.txt"
        i=$((i+1))
    done
    kill $P1 $P2 $P3
    wait $P1 $P2 $P3 || true
    trap print_timings EXIT
    rm -rf cluster-smoke
}

# Tier 1: the fast local iteration loop.
stage fmt
stage build
stage test
if [ "${CI_QUICK:-0}" = "1" ]; then
    echo "CI_QUICK=1: tier-1 stages only"
    exit 0
fi
# Full CI.
stage shuffle
stage static
stage suites
stage fuzz
stage check
stage bench
stage service
stage cluster
