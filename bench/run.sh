#!/bin/sh
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   sh bench/run.sh --workload chip36-fft --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (the Go build cache, its scratch files and the
# binary) stays in .bench_build at the root.
set -e
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
go build -C "$root/bench" -o "$out/scorpio-bench" .
exec "$out/scorpio-bench" "$@"
