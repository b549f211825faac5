#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (ignored by git) and
# runs it. Start it from the repository root, as BENCHMARK.json's command
# does; the arguments go to the program unchanged. Nothing outside the
# checkout is read or written: the go caches live in .bench_build/ too.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$build/pubbench" .) >&2
exec "$build/pubbench" "$@"
