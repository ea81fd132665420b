#!/usr/bin/env bash
# Builds the benchmark and the daemon from source and runs the benchmark
# pinned to one CPU (see README.md, "One core"). Everything the build
# and the run write stays under .bench_build/ and bench/out/ of the
# checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off
(cd "$root/bench" && go build -o "$build/bin/bench" .)
# Built here, on every CPU there is; the benchmark's own build of the
# daemon then finds it up to date.
(cd "$root" && go build -o "$build/bin/tetrisd" ./cmd/tetrisd)
cd "$root"
if command -v taskset >/dev/null; then
	# The last CPU this process may run on: the first one serves most
	# interrupts.
	cpu=$(taskset -cp $$ | sed 's/.*[ ,-]//')
	exec taskset -c "$cpu" "$build/bin/bench" "$@"
fi
exec "$build/bin/bench" "$@"
