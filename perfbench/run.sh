#!/usr/bin/env bash
# Builds the benchmark from this checkout's source with the installed Go
# toolchain and runs it. Every build and run output (Go build cache,
# binary, span files) stays under perfbench/out.
#
#   bash perfbench/run.sh --workload read-ordered --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME moves the go command's env file and telemetry
# counters into out/ as well.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
if ! (cd "$here" && go build -o "$out/perfbench" .); then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" -out "$out" "$@"
