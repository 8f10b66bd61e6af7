#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build and the run write — Go's build cache,
# the binary, member data and log dirs — stays under .bench_build/ at the
# checkout root (trace files go to out/), so a run touches nothing outside.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
cd "$root"
go build -C "$here" -o "$build/harmony-benchmark" .
exec "$build/harmony-benchmark" "$@"
