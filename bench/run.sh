#!/bin/sh
# Builds the fleet benchmark from source and runs it from the
# repository root with the given flags, e.g.
#
#	sh bench/run.sh -seed 1 -o out.json
#	sh bench/run.sh --workload day-discrete --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, toolchain
# config, binary) stays under .bench_build in the repository root.
set -eu
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd bench && go build -o "$out/stretchbench" .)
exec "$out/stretchbench" "$@"
