#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it there:
#   bash benchmark/run.sh --workload net_d1 --seed 1 --seconds 10 --trace 0
# The binary, the Go build cache, the unix sockets and the span files all live
# under .bench_build/ at the checkout root; nothing is written elsewhere.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$root/.bench_build/flit-benchmark" .
exec .bench_build/flit-benchmark "$@"
