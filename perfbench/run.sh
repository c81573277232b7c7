#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload kv-read --seed 1 --seconds 10 --trace 0
#	bash perfbench/run.sh --smoke
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the span files.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

# The benchmark module imports the repository through a relative replace,
# so it only builds inside a checkout of the repository.
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
