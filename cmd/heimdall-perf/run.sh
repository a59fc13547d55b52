#!/bin/sh
# Builds heimdall-perf from the tree it is run in and hands it the arguments.
# Everything the build and the run write stays under .bench_build in the
# current directory (the module root): the Go build cache, the go command's
# temporary files and its per-user state (telemetry counters) are redirected
# there, and GOTOOLCHAIN=local keeps it from fetching another toolchain.
set -eu
root=$(pwd)
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local
go build -o .bench_build/heimdall-perf ./cmd/heimdall-perf
exec .bench_build/heimdall-perf "$@"
