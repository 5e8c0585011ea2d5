#!/usr/bin/env bash
# Builds the benchmark from source (into .bench_build/ at the repository
# root, with the Go build cache there too, so nothing is written outside
# the checkout) and runs it from the repository root with the given
# arguments. See README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go -C "$root/bench" build -o "$out/oparaca-bench" .
cd "$root"
exec "$out/oparaca-bench" "$@"
