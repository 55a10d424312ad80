#!/usr/bin/env bash
# Builds sweepbench from source and runs it with the given arguments. Run it
# from the repository root: the Go build cache, the binary and every file a
# run writes stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/sweepbench" build -o "$out/sweepbench" .
exec "$out/sweepbench" "$@"
