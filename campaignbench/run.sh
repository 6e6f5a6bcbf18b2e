#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash campaignbench/run.sh --workload ga-virus --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (compiler cache included).
set -euo pipefail
bench="$(cd "$(dirname "$0")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
(cd "$bench" && go build -o "$out/campaignbench" .) >&2
exec "$out/campaignbench" "$@"
