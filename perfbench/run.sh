#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the root of the checkout:
#
#   bash perfbench/run.sh --workload predict_batch --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and traced-run spans stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
