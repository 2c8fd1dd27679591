#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs one workload:
#
#   bash perfbench/run.sh --workload paper-adaptive-fleet --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the checkout root: the Go build cache, the binary, and each run's
# scratch directory. Run it from anywhere inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
