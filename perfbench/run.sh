#!/usr/bin/env bash
# Builds the benchmark and the evaluation server (cmd/ssfserver) from the
# sources of the checkout it is run from, then runs the benchmark with
# the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload gate_importance --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build in the
# checkout root: the Go build cache, and the toolchain's per-user
# configuration (telemetry counters) through XDG_CONFIG_HOME.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
    GOMODCACHE="$out/gopath/mod" XDG_CONFIG_HOME="$out/config" \
    GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$here" build -o "$out/bin/perfbench" . >&2
go -C "$here" build -o "$out/bin/ssfserver" repro/cmd/ssfserver >&2
exec "$out/bin/perfbench" -server "$out/bin/ssfserver" -workdir "$out" "$@"
