#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload corpus-tree --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, temporary
# files, the generated inputs, the trained models and the span dumps.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export HOME=$build/home
export XDG_CONFIG_HOME=$build/home
export XDG_CACHE_HOME=$build/home
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/work" "$@"
