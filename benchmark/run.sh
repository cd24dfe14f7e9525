#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from anywhere; the
# benchmark itself runs from the repository root. Everything the build and
# the run write stays inside the checkout: the Go build cache and the binary
# under .bench_build/, results, spans and scratch files under benchmark/out/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd benchmark && go build -o "$build/hetfed-benchmark" .)

HETFED_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export HETFED_COMMIT
exec "$build/hetfed-benchmark" "$@"
