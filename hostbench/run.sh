#!/usr/bin/env bash
# Builds hostbench from source under .bench_build and runs it, from the
# root of a checkout:
#
#   bash hostbench/run.sh --workload compute --seed 1 --seconds 15 --trace 0
#
# The Go build cache and every output stay inside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/hostbench"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd hostbench && go build -o "$out/hostbench/hostbench" .)
if [ -d .git ]; then
	HOSTBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
	export HOSTBENCH_COMMIT
fi
exec "$out/hostbench/hostbench" "$@"
