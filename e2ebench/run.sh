#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout this script lives in
# and runs it once:
#
#   bash e2ebench/run.sh --workload narrow-agg --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, WAL
# directories, temp files) stays under .bench_build/ in the checkout.
# Without the rest of the repository next to e2ebench/ the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/work"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --workdir "$build/work" "$@"
