#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload tatp-mix --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root.  Build outputs, the Go build cache, the
# go command's configuration and telemetry directory, and the benchmark's
# data directories all stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$build/config"
go build -C "$root/perfbench" -o "$build/perfbench.bin" .
exec "$build/perfbench.bin" "$@"
