#!/usr/bin/env bash
# Builds the gpuleak benchmark from the sources of this checkout and runs
# it with the given flags, e.g.
#
#   bash bench/run.sh --workload eavesdrop-lib --seed 7 --seconds 10 --trace 0
#   bash bench/run.sh                      # every workload, one child each
#
# Every file the toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ at the root of the checkout, and the
# toolchain never reaches for the network.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

go -C "$root/bench" build -o "$build/gpuleak-bench" .
exec "$build/gpuleak-bench" "$@"
