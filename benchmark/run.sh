#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout: bash benchmark/run.sh --workload steady-120 --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes — build cache, temporary files, the
# binary — stays under .bench_build/ in the checkout, and nothing is fetched.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
