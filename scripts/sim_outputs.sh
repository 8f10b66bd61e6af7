#!/usr/bin/env bash
# Writes the JSON results of the simulated experiments — hotcold, churn,
# partition, regroup, lag, and fig6 across all six network scenarios (the
# paper-figure path and every jitter sampler) — at a fixed seed into DIR
# (about 40 s).
# Every simulated result repeats exactly per seed, so two runs of this
# script must produce identical directories (`make sim-repeat`), and a
# refactor that should not change the simulation can be checked with
# `diff -r` against a directory written before it. The script builds
# ./cmd/harmony-bench from the current directory, so running it from another
# checkout writes that checkout's outputs (`make sim-diff`).
#
# Usage: scripts/sim_outputs.sh DIR
set -euo pipefail

dir=${1:?usage: scripts/sim_outputs.sh DIR}
mkdir -p "$dir"
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/harmony-bench" ./cmd/harmony-bench

run() {
	local name=$1
	shift
	"$bin/harmony-bench" -quiet -seed 1 -experiment "$name" -json "$dir/$name.json" "$@" >/dev/null
}
run hotcold -scenario grid5000 -ops 8000
run churn
run partition
run regroup -ops 8000
run lag
run fig6 -scenario all -ops 1500 -threads 8
