#!/usr/bin/env bash
# Builds the served benchmark from this checkout's sources and runs it
# with the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload scan-k100-np4 --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, config, telemetry)
# and everything the benchmark writes (WAL and extent files) stays under
# .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
