#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, e.g.
#
#   bash bench/run.sh --workload poison-short --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare bench/results/setA bench/results/setB
#
# Build outputs go to $CARGO_TARGET_DIR (default .bench_build) inside the
# working tree: the Go build cache, and the go command's user config
# directory, where it keeps telemetry counters. The module in bench/ uses
# the repository's module through a replace directive, so the build fails
# when the rest of the repository is absent.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
# The build revision stamps every run's provenance; a checkout without
# .git has none to stamp.
vcs=false
[ -e .git ] && vcs=auto
export GOFLAGS="-mod=readonly -buildvcs=$vcs" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd bench && XDG_CONFIG_HOME=$out/config go build -o "$out/bench" .)
exec "$out/bench" "$@"
