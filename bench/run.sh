#!/usr/bin/env bash
# run.sh — build the benchmark from this checkout's source and run it.
#
# Usage, from the repository root:
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
#   bash bench/run.sh -compare BASE.json NEW.json
#
# Everything the build and the run write stays under .bench_build/ in
# the repository: the Go build cache, the binaries, daemon state and the
# span files. The first run compiles the standard library into that
# cache and takes a few minutes; later runs reuse it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/bench" && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
