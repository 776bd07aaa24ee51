#!/usr/bin/env bash
# Builds the fleet benchmark from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash fleetbench/run.sh --workload mix-warm --seed 1 --seconds 20 --trace 0
#
# The Go build cache and the binary live under .bench_build/ in the
# checkout, so nothing is read from or written to the user's Go setup.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/fleetbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=readonly GOTELEMETRY=off
(cd "$root/fleetbench" && go build -o "$out/fleetbench" .)
exec "$out/fleetbench" "$@"
