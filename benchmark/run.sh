#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments;
# this is the command in BENCHMARK.json. Everything the Go toolchain
# writes (build cache, module cache, telemetry) and the binary itself
# stay under the checkout's build directory, so a run never writes
# outside the checkout it was started in.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOTMPDIR="$build/tmp"
mkdir -p "$GOTMPDIR"

# The go command otherwise starts a detached telemetry child the first
# time it sees a fresh config directory; that child outlives this script.
# Mode "off" makes it start none.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

command -v go >/dev/null || export PATH="$PATH:/usr/local/go/bin"

go build -o "$build/vf2bench" ./benchmark
exec "$build/vf2bench" "$@"
