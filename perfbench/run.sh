#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload cache1-steady --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the Go toolchain writes (build
# cache, binary) stays under .bench_build/ so the run touches nothing
# outside the checkout. The toolchain is pinned to the local one and the
# module proxy is off: the benchmark has no dependencies to fetch.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build/perfbench"
mkdir -p "${build}"
export GOCACHE="${build}/gocache" GOMODCACHE="${build}/gomodcache" GOPATH="${build}/gopath"
export GOTMPDIR="${build}" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The toolchain keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="${build}/config"

(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" --out "${build}" "$@"
