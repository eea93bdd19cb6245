#!/usr/bin/env bash
# The command BENCHMARK.json names. It keeps everything the Go toolchain
# writes (build cache, temp files, binaries) under <checkout>/.bench_build,
# builds the harness from source, and hands it the arguments.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/predictd" ]; then
	echo "benchmark: $root holds no repro module: there is no program to measure" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$here" -o "$build/bin/harness" .
BENCHMARK_ROOT="$root" exec "$build/bin/harness" "$@"
