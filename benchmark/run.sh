#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload ooc-paper --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (binary, Go build cache, trace output) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
# The benchmark needs no module outside the checkout; never fetch one.
export GOPROXY=off
# Keeps the go command's own config and telemetry files inside the build dir.
export XDG_CONFIG_HOME="$build/config"

(cd "$root/benchmark" && go build -o "$build/northup-benchmark" .)
exec "$build/northup-benchmark" "$@"
