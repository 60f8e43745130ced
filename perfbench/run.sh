#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash perfbench/run.sh --workload replica-local --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and trace file stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout. Outside a full checkout the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters)
# inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" GOENV=off \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
