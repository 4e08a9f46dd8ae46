#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#	sh perfbench/run.sh --workload query-resident --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, scratch files and traces all stay under
# .bench_build in the current directory.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out" "$@"
