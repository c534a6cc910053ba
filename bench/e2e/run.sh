#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from bench/e2e.
# Everything the build writes (binary, Go build and module caches, the go
# command's own counters) goes to .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(cd "$here/../.." && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= XDG_CONFIG_HOME="$build/config"
cd "$here"
go build -o "$build/e2e" .
exec "$build/e2e" "$@"
