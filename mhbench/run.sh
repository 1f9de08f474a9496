#!/usr/bin/env bash
# Builds the benchmark and the multihitd daemon from this checkout's
# source, then runs one benchmark workload. Run from anywhere:
#
#   bash mhbench/run.sh --workload dense-4hit --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/mhbench
# in the checkout, the Go build cache included.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/mhbench"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root/mhbench"
go build -o "$out/bin/mhbench" .
go build -o "$out/bin/multihitd" repro/cmd/multihitd
exec "$out/bin/mhbench" -daemon "$out/bin/multihitd" -work "$out" "$@"
