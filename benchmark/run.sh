#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the Go toolchain writes goes under .bench_build, so nothing outside
# the checkout is touched. Arguments go to the benchmark unchanged:
#   bash benchmark/run.sh --workload sim-atomic --seed 7 --seconds 30 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
