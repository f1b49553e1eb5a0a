#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source inside the checkout
# and run one workload. The driver appends
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under the checkout: the Go build
# and module caches go to .bench_build, results to benchmark/out.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" run "$@"
