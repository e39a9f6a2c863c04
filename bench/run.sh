#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current checkout
# and runs it with the given arguments. BENCHMARK.json names this script, so
# that the Go build cache and the binary stay inside the checkout; `go run
# ./bench` does the same with the user's own cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
go build -buildvcs=false -o "$build/bench" ./bench
exec "$build/bench" "$@"
