#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark driver from
# source with every Go cache inside the checkout, then hand it the
# arguments. Exits non-zero without output when the repo is not around it.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME: the go command keeps its telemetry counters there.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off
(cd "$bench" && go build -o "$build/benchdriver" .)
cd "$root"
exec "$build/benchdriver" "$@"
