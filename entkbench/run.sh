#!/usr/bin/env bash
# Builds the EnTK end-to-end benchmark from the sources of the checkout it
# sits in, then runs it with the given arguments:
#
#   bash entkbench/run.sh --workload bag --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write (Go build cache, binary, journals, sockets, traces, results) goes
# under .bench_build/ in that directory. Without the repository's sources
# next to entkbench/ the build fails and the script exits nonzero.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

# Keep the toolchain inside the checkout and offline: no toolchain or module
# downloads, build cache and temporary files under .bench_build.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off

(cd "$here" && go build -o "$out/entkbench" .)
exec "$out/entkbench" "$@"
