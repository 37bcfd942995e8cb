#!/usr/bin/env bash
# Builds cellbench from the checkout's sources and runs it with the
# given arguments. Run from the root of a checkout:
#
#   bash cellbench/run.sh --workload logscan --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and scratch files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout. The
# build is pure Go (CGO_ENABLED=0), so it needs no C compiler and
# writes no temporary files outside that directory.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
go -C cellbench build -buildvcs=false -o "$out/cellbench" .
exec "$out/cellbench" --work "$out" "$@"
