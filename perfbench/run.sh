#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 34 --trace 0
#
# Build outputs, the Go build cache and every run's scratch files stay
# under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
(
	cd "$here"
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
		GOFLAGS= GOTOOLCHAIN=local \
		go build -o "$build/perfbench" .
) >&2
exec "$build/perfbench" "$@"
