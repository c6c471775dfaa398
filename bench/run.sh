#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ (build cache included, so nothing is written
# outside the checkout) and replaces itself with the binary.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPROXY=off GOTOOLCHAIN=local
# -buildvcs=false: a checkout need not be a git repository, and a broken
# one must not fail the build.
go build -C "$root/bench" -buildvcs=false -o "$out/luckybench" .
exec "$out/luckybench" "$@"
