#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes lands
# under .bench_build/ (build cache, binaries, scratch) or benchmark/out/
# (trace files) of the checkout this script sits in; nothing outside it.
#
#   bash benchmark/run.sh --workload npb_cg --seed 1 --seconds 12 --trace 0
#   bash benchmark/run.sh --seed 1          # all six workloads, both passes
#   bash benchmark/run.sh --selfcheck       # A/A against the declared bounds
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
[ -n "${HOME:-}" ] || export GOPATH="$build/gopath"
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -root "$root" "$@"
