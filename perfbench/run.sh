#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's sources and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload figure4 --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, the binary,
# span dumps, run history) stays under .bench_build/ in the checkout.
# Outside a full checkout (no ../go.mod for the replace directive) the
# build fails and the script exits nonzero without printing a result.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --outdir "$out/perfbench-out" "$@"
