#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it. Run from the
# repository root; arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload churn-sparse --seed 1 --seconds 40 --trace 0
#
# The build cache, the binary, earlier runs' fingerprints and the traced
# runs' spans all live under .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep every file the toolchain writes (caches, temporaries, the
# per-user config and telemetry) inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
