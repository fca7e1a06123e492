#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh --workload paper-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, scratch
# cache directories, traces) stays under .bench_build/ in the current
# directory. The build fails, and the script exits non-zero without a
# result, when the toolchain sources are not present.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export CGO_ENABLED=0

(cd "$root/bench" && go build -o "$out/cgraperf" .)
exec "$out/cgraperf" "$@"
