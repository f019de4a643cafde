#!/usr/bin/env bash
# Builds the campaign benchmark and taskpointd from the sources of the
# checkout it is run in, then runs the benchmark with the given arguments:
#
#   bash campbench/run.sh --workload sweep-cold --seed 42 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the benchmark's scratch stores all live under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is read or written outside the
# checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache

(cd campbench && go build -o "$out/campbench" .) >&2
go build -o "$out/taskpointd" ./cmd/taskpointd >&2

exec "$out/campbench" -taskpointd "$out/taskpointd" -workdir "$out/work" "$@"
