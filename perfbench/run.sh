#!/usr/bin/env bash
# Builds the daemon and the benchmark driver from the checkout's source,
# then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload audit-fresh --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact, the Go build
# cache and the driver's scratch files stay under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/unidetectd" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/unidetectd here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/unidetectd" ./cmd/unidetectd
(cd perfbench && GOFLAGS=-mod=mod go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -daemon "$out/bin/unidetectd" -workdir "$out/perfbench" "$@"
