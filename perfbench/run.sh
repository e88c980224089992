#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot_zipf --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache go
# under $CARGO_TARGET_DIR (default .bench_build) in the current directory,
# so nothing is written outside it. The build fails, and the script exits
# non-zero without a result, when the repository's Go module is missing.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry counters under the
# user's configuration directory; point that into the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
