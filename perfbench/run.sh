#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload campaign-quick --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the root:
# the Go build cache, temporary files, the binary and the workloads'
# scratch files.
set -euo pipefail
root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/campaign" ]; then
	echo "perfbench: run from the repository root (no go.mod or internal/campaign in $root)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -workdir "$build/work" "$@"
