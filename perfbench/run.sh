#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload curation --seed 1 --seconds 30 --trace 0
#
# Everything building and running writes — the binary, the Go build cache,
# temporary files, the benchmark's scratch stores and its trace files — stays
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" "$@"
