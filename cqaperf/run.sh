#!/usr/bin/env bash
# Builds the cqaperf benchmark from the sources of this checkout and runs
# it. Run from the repository root:
#
#   bash cqaperf/run.sh --workload estimate --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes to .bench_build/ in
# the current directory: the Go build cache and temporary files, the
# binary, synopsis caches of the serve workload and the Chrome traces of
# traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOSUMDB=off

(cd "$root/cqaperf" && go build -o "$out/cqaperf" .) >&2
exec "$out/cqaperf" -out "$out" "$@"
