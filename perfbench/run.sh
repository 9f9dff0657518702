#!/usr/bin/env bash
# Builds qoeproxy and the benchmark program from the sources of the
# checkout it is run in, then runs one benchmark run:
#
#   bash perfbench/run.sh --workload replay-history --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build caches, binaries, generated
# inputs and result envelopes all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/qoeproxy" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (cmd/qoeproxy and perfbench/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local

go build -o "$out/bin/qoeproxy" ./cmd/qoeproxy
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --bin "$out/bin/qoeproxy" --workdir "$out/perfbench" "$@"
