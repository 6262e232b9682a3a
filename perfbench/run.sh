#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it with the
# given flags, for example:
#
#   bash perfbench/run.sh --workload multicast --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, the binary, the
# durable workload's WAL directories) stays under the build directory:
# .bench_build at the checkout root, or CARGO_TARGET_DIR when set.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/go/cache" GOMODCACHE="$build/go/mod" GOPATH="$build/go/path"
export GOTMPDIR="$build/go/tmp" XDG_CONFIG_HOME="$build/go/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --tmpdir "$build/tmp" "$@"
