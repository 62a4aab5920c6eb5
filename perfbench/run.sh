#!/usr/bin/env bash
# Builds the benchmark, pytfhed and pytfhe from this checkout into
# .bench_build/ and runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-d128 --seed 1 --seconds 20 --trace 0
#
# Build output goes to standard error; standard output carries the run
# record and, on its last line, the result object.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin" "$out/work" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/bin/" ./cmd/pytfhed ./cmd/pytfhe >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
