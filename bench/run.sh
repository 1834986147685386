#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
#
#   bash bench/run.sh                                  every workload, both runs -> bench/out/BENCH.json
#   bash bench/run.sh -doc bench/results/BENCH_11.json the same, written where a PR commits it
#   bash bench/run.sh -workload ingest_novel           one workload, the end-to-end run
#   bash bench/run.sh -workload ingest_novel -trace 1  one workload, the traced per-layer run
#   bash bench/run.sh compare old.json new.json        verdict per workload x metric
#
# This is the command of BENCHMARK.json: a driver runs it from the root of a
# checkout as `bash bench/run.sh --workload <name> --seed <n> --seconds <s>
# --trace <0|1>`. Everything it writes stays inside the checkout: the
# binary and the Go build cache under .bench_build/, scratch data and span
# files under bench/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/logr-bench" . >&2
exec "$build/logr-bench" "$@"
