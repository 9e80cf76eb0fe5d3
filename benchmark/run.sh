#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ (Go
# build cache included, so nothing is written outside the checkout) and
# runs it with the given arguments. Run from the repository root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
