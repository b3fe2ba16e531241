#!/usr/bin/env bash
# run.sh — build the benchmark harness and the mccached binary it drives,
# then run the harness. Everything the build and the runs leave behind (the
# Go build cache included) lands under .bench_build/ at the checkout root,
# which .gitignore names. Arguments pass through to the harness; see
# bench/README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -C bench -o "$out/mcbench" .
go build -o "$out/mccached" ./cmd/mccached
exec "$out/mcbench" -mccached "$out/mccached" -work "$out" "$@"
