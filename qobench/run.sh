#!/usr/bin/env bash
# Builds the steering-cost benchmark from source and runs it.
#
#   bash qobench/run.sh --workload hinted-bulk --seed 7 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, WAL directories, artifacts) stays under
# .bench_build/ in the current directory. Build output goes to stderr;
# the benchmark's own report goes to stdout, ending in one JSON line.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C "$root/qobench" build -o "$out/qobench" . >&2
exec "$out/qobench" "$@"
