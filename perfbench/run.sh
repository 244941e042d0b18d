#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload paper-gups --seed 1 --seconds 30 --trace 0
# Run it from the repository root. Build outputs, the Go build cache and
# span files stay under .bench_build/ there.
set -euo pipefail
out=".bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" GOTMPDIR="$PWD/$out/tmp"
# The go command's config and telemetry counters live under the user
# config directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$PWD/$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off CGO_ENABLED=0
go build -C perfbench -o "../$out/perfbench" .
exec "$out/perfbench" "$@"
