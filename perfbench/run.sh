#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it once.
# Usage (from the checkout root):
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every build product and cache stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
# Build to a private name, then rename: a concurrent run never executes a
# half-written binary.
tmp="$out/perfbench.$$"
(cd "$root/perfbench" && go build -o "$tmp" .)
mv -f "$tmp" "$out/perfbench"
exec "$out/perfbench" --out "$out" "$@"
