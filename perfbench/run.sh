#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it, forwarding every argument:
#
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, the binary, the trace records) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

# Keep the toolchain's caches, config and temporary files inside the
# checkout.
export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
