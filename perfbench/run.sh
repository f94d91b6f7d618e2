#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload reproduce --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write (the
# Go build cache, the perfbench binary, temporary stores, trace files) stays
# under the build directory, which is $CARGO_TARGET_DIR when set and
# .bench_build otherwise.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export TMPDIR=$out/tmp
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
export PERFBENCH_OUT=$out
exec "$out/perfbench" "$@"
