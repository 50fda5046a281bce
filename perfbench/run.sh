#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one workload:
#   bash perfbench/run.sh --workload tpcc-sim --seed 1 --seconds 14 --trace 0
# Run from the repository root. The Go build cache, the binary, the run
# records and scratch files all go under $CARGO_TARGET_DIR (default
# .bench_build), so the run reads and writes nothing outside the checkout
# but the Go toolchain itself.
set -euo pipefail
root=$(pwd)
build="$root/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
bin="$build/perfbench-bin"
(cd "$root/perfbench" && go build -o "$bin" .) >&2
commit=unknown
if [ -d "$root/.git" ]; then
  commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$bin" --out "$build/perfbench" --commit "$commit" "$@"
