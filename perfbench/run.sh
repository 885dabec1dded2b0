#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#   bash perfbench/run.sh --workload rfid-resolve --seed 1 --seconds 30 --trace 0
# Run from the repository root. Build outputs and Go's caches stay under
# .bench_build in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
