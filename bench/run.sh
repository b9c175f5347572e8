#!/usr/bin/env bash
# Builds the benchmark and cmd/experiments from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash bench/run.sh -workload paper3k -seed 1 -seconds 20 -trace 0
#
# Everything the build and the run leave behind, the Go build cache
# included, stays under .bench_build in the repository root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/experiments || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the epnet repository root" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS="" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/experiments" ./cmd/experiments
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
