#!/usr/bin/env bash
# Builds the served-path benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload ga-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, server state,
# the replay trace) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off

(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
