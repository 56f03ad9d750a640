#!/usr/bin/env bash
# Builds cmd/textureserver and the benchmark from this checkout's
# sources, then runs one workload:
#
#   bash perfbench/run.sh --workload annotate-fresh --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, cache and
# scratch file stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Go's build cache, module cache and telemetry counters would otherwise
# land in the home directory.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/textureserver" ./cmd/textureserver
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -server "$out/textureserver" "$@"
