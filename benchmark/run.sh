#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the repository
# root. Everything the Go toolchain writes (build cache, module cache, its
# configuration and telemetry files) is kept under .bench_build, so a run
# touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOENV=off \
	GOFLAGS= GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
