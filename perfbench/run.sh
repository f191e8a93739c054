#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload table1-ev8 --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Everything the build and the run
# write stays under the build directory ($CARGO_TARGET_DIR, default
# .bench_build): the Go build and module caches, the binary, the serve
# workload's cache stores and the traced run's span file.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

cd "$(dirname "$0")"
go build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" --workdir "$build/work" "$@"
