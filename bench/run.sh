#!/usr/bin/env bash
# Builds bench/ppbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload verify --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare bench/out/A*.json -- bench/out/B*.json
#
# Everything the build and the run write stays inside the repository: the
# Go build cache, temporary files and the binary go to .bench_build/, run
# records and span files to bench/out/. Without the repository's root
# module next to bench/, the build fails and the script exits non-zero
# before printing any result.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point it into the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

(cd "$bench" && go build -o "$build/ppbench" ./ppbench) >&2

cd "$root"
exec "$build/ppbench" "$@"
