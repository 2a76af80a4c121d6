#!/usr/bin/env bash
# Builds bench/kgeperf from source into .bench_build/ and runs it with the
# arguments given. This is the command BENCHMARK.json names; run it from the
# repository root:
#
#   bash bench/run.sh --workload train_dense --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# the binary, scratch checkpoints, result and trace files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/core ]; then
	echo "bench/run.sh: run from the root of a kgedist checkout (go.mod and internal/ not found here)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export CGO_ENABLED=0

go build -o "$out/kgeperf" ./bench/kgeperf
export TMPDIR="$out/tmp"
exec "$out/kgeperf" "$@"
