#!/usr/bin/env bash
# Builds krallperf from the sources in this checkout and runs it with the
# given arguments. Run it from the root of the repository:
#
#	bash cmd/krallperf/run.sh -workload sweep -seed 1
#
# Everything the build writes (binary, Go build cache, Go config) stays
# under .bench_build/ in the working directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -C cmd/krallperf -o "$out/krallperf" .
exec "$out/krallperf" -spans "$out/spans.json" "$@"
