#!/usr/bin/env bash
# Builds the layered benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload repro-grid --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artefact and cache lives under
# the build directory (CARGO_TARGET_DIR when set, else .bench_build), so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
