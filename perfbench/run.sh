#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ (with its Go build cache
# there too, so the run reads and writes only inside the checkout) and runs
# it from the repository root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-kernels --seed 1 --seconds 30 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
