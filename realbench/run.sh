#!/usr/bin/env bash
# Builds the real-socket benchmark from the source tree it sits in and
# runs it. Every build product, temporary file and span dump stays under
# .bench_build/ at the root of the tree.
#
#   bash realbench/run.sh --workload sig-closed --seed 1 --seconds 20 --trace 0
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$out/realbench" .)
exec "$out/realbench" -out "$out" "$@"
