#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload stencil --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the go command writes (build
# cache, temporary files, module cache, telemetry counters) and the binary
# stay inside the checkout, under .bench_build/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

# The benchmark is its own module; go.mod points it at the sources one
# directory up, which must hold the mellow module.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
