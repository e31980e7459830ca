#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to
# the binary. Run from the root of the repository:
#
#   bash bench/run.sh                      # all workloads, end to end + traced pass
#   bash bench/run.sh -workload udp-echo-closed -seed 7 -seconds 15 -trace 0
#
# Build outputs (binary, Go build cache, toolchain config) stay in
# .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$here"
	GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/psp-bench" .
)
cd "$root"
exec "$out/psp-bench" "$@"
