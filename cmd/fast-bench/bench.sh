#!/usr/bin/env bash
# BENCHMARK.json's command: run the harness from the root of a checkout
# with the Go build cache, Go's temporary files and its per-user
# configuration inside the checkout (.bench_build/), so that a run reads
# and writes nothing outside it. Arguments go to fast-bench unchanged.
set -eu
b="$PWD/.bench_build"
mkdir -p "$b/gocache" "$b/tmp" "$b/config"
export GOCACHE="$b/gocache" GOTMPDIR="$b/tmp" XDG_CONFIG_HOME="$b/config"
exec go run ./cmd/fast-bench "$@"
