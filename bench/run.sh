#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash bench/run.sh --workload au_mw_closed --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind — the Go build cache, the
# binary and a traced run's span file — stays in .bench_build/ at the
# root of the checkout. Nothing is downloaded: the module depends only on
# the repository it sits in and on the standard library.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/bench" .)

exec "$out/bench" -trace-out "$out/trace.json" "$@"
