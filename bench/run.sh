#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given arguments. Everything the Go toolchain writes (build cache, temporary
# files, telemetry) is kept inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="${GOPATH:-$build/gopath}" GOTOOLCHAIN=local
go build -o "$build/edgeis-bench" ./bench
exec "$build/edgeis-bench" "$@"
