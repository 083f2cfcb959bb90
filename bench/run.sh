#!/usr/bin/env bash
# Entry point of the repository's benchmark (see BENCHMARK.json, README.md):
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the harness from source into <checkout>/.bench_build (first run
# only, or when a Go source is newer than the binary) and runs it there.
# Everything the run writes — Go build cache, simd binary, journals, the
# Chrome trace — stays inside .bench_build.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The go command's own files — build cache, temporaries, module path,
# telemetry counters (under the user config dir) — stay in the checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

cd "$root/bench"
bin="$build/bench"
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod -o -name goldens.json \) -newer "$bin" -print -quit)" ]; then
	go build -o "$bin" .
fi
exec "$bin" -build-dir "$build/run" "$@"
