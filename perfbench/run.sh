#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fig14-mail --seed 7 --seconds 30 --trace 0
#
# Everything the build and the run write
# (Go build cache, binary, traced-run spans) goes under the build
# directory: $CARGO_TARGET_DIR if set, else .bench_build, relative to the
# repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"

# Keep the toolchain's caches and config inside the build directory, and
# never reach for the network: the module has no dependencies.
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -spans "$build/spans" "$@"
