#!/usr/bin/env bash
# Builds the CapMaestro benchmark from source and runs one workload.
#
#   bash bench/run.sh --workload deep-steady --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artifact (the Go build
# cache included) goes under $CARGO_TARGET_DIR, default .bench_build, so
# the run reads and writes nothing outside the checkout. Build output
# goes to stderr; the last line on stdout is the JSON result.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOTOOLCHAIN=local GOENV=off GOFLAGS= CGO_ENABLED=0
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
# The control-plane workloads measure the shipped transport defaults.
unset CAPMAESTRO_WIRE_CODEC

go -C bench build -o "$out/capbench" . >&2
GOMAXPROCS=2 exec "$out/capbench" -spans-dir "$out/spans" "$@"
