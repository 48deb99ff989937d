#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload fleet-tiny-mmpp --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (binary, Go build cache, temporary files)
# goes under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
# The benchmark is its own Go module (perfbench/go.mod) that points at the
# repository root, so outside a full checkout the build, and this script,
# fail before anything is printed.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
