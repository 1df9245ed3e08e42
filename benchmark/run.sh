#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# arguments given. Run it from the repository root, e.g.
#
#   bash benchmark/run.sh --workload live-fanout --seed 1 --seconds 50 --trace 0
#   bash benchmark/run.sh --summarize
#
# The Go build and module caches live under .bench_build/ too, so a run
# reads and writes nothing outside the checkout, and fetches nothing.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C benchmark build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
