#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command. It is run from the root of a checkout, and
# everything it writes stays under benchmark/out/: the Go build cache and
# the binary in out/build/, results beside them.
#
#   bash benchmark/run.sh --workload pp4k_tcp --seed 1 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/out/build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
# The go command keeps telemetry counters under the user's config directory;
# point it into the build directory too.
export XDG_CONFIG_HOME="$build/config"

cd "$here"
go build -o "$build/mpjbench" .
exec "$build/mpjbench" "$@"
