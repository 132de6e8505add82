#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# arguments given:
#
#   bash bench/run.sh --workload room-e2e --seed 1 --seconds 24 --trace 0
#
# Everything the build writes (the Go build cache included) stays inside
# the checkout, under $CARGO_TARGET_DIR or .bench_build.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false
go build -o "$build/semholo-m2p-bench" ./bench
exec "$build/semholo-m2p-bench" "$@"
