#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload uniform-stable-dor --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
