#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments (see README.md). Run from the repository root:
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/gocache" "$build/gomodcache" "$build/config"
# Keep every file the toolchain writes (build cache, telemetry, temp
# files) inside the build directory, and never touch the network.
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache XDG_CONFIG_HOME=$build/config \
	TMPDIR=$build/tmp GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
