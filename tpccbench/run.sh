#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing every
# argument through. Run from the root of the repository:
#
#   bash tpccbench/run.sh --workload tpcc-steady --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, the toolchain's temporary and config files
# and each run's WAL directory live under .bench_build/ in the current
# directory; nothing outside the checkout is written.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd "$root/tpccbench" && go build -o "$out/tpccbench" .)
exec "$out/tpccbench" "$@"
