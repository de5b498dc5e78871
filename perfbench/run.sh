#!/usr/bin/env bash
# Builds the perfbench benchmark from source and runs it.
#
# Run from the repository root:
#
#   bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, scratch directories and
# the span files of traced runs. Without the repository's sources next to
# perfbench/ the build fails and the script exits nonzero without a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -work "$out" "$@"
