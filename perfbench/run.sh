#!/usr/bin/env bash
# Builds optassign, campaignd, measured and the benchmark from source, then
# runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload solo-24t --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory: binaries, the Go build cache, temporary files and the
# per-run data directories the workloads use.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/optassign" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root: the programs under test are missing here" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/work" "$build/home"
# Keep the toolchain's caches, configuration and telemetry inside the
# checkout, and never let it fetch another toolchain.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

go build -o "$build/bin/" ./cmd/optassign ./cmd/campaignd ./cmd/measured
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
