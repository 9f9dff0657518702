#!/bin/sh
# Repo health gate: formatting, vet, the full test suite, and the race
# detector on the packages that train, evaluate or serve concurrently.
# Run from anywhere inside the repo; exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l . 2>/dev/null)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== doc lint (operator-facing packages) =="
go run ./scripts/doclint internal/sessionid internal/tlsproxy internal/squidlog internal/features internal/core internal/faultinject internal/ml/compiled internal/ingest internal/netflow internal/pcap internal/intern internal/bytesconv internal/cluster

echo "== go test =="
go test ./...

echo "== perfbench module (vet + tests) =="
# perfbench is a nested module, so the root go test ./... skips it; it
# imports internal/ingest, internal/core and internal/tlsproxy.
(cd perfbench && go vet ./... && go test ./...)

echo "== go test -race (concurrent packages, incl. faultinject chaos tests and qoeproxy shard invariance) =="
# -timeout 20m: the experiments paper-shape suite takes ~10 wall-clock
# minutes under the race detector on a 1-core host, right at go test's
# default timeout.
go test -race -timeout 20m ./internal/ml/... ./internal/core ./internal/dataset ./internal/tlsproxy ./internal/metrics ./internal/experiments ./internal/features ./internal/faultinject ./internal/intern ./internal/ingest ./internal/cluster ./cmd/qoeproxy

echo "== snapshot decoder fuzz (15s) =="
# The seeds run in go test above; this mutates them: every decodable
# snapshot must restore, ingest, classify and drain without a panic
# and with the per-client run invariants intact.
go test -run '^$' -fuzz '^FuzzRestoreSnapshot$' -fuzztime 15s ./cmd/qoeproxy

echo "== feature benchmarks (smoke) =="
go test -run '^$' -bench Feature -benchtime 1x .

echo "== serving benchmarks (smoke: compiled scorers incl. batched sweep, sharded ingest) =="
go test -run '^$' -bench . -benchtime 1x ./internal/ml/compiled
go test -run '^$' -bench ConcurrentIngest -benchtime 100x ./cmd/qoeproxy

echo "== ingest benchmarks (smoke) + zero-alloc parser gate =="
go test -run '^$' -bench IngestEndToEnd -benchtime 1x ./internal/ingest
# The byte parser is the per-line hot path; any allocation is a
# regression. BENCH_ingest.json proper comes from scripts/benchingest.
parse_out=$(go test -run '^$' -bench 'SquidParse/bytes' -benchmem ./internal/squidlog)
echo "$parse_out"
if ! echo "$parse_out" | grep -q "	       0 allocs/op"; then
	echo "ParseLineBytes allocates; the zero-alloc ingest gate failed"
	exit 1
fi

echo "== qoeproxy smoke (/metrics, /healthz, squid-log tail, model hot reload, SIGTERM drain) =="
go run ./scripts/smoke

echo "== qoeload soak (replay a few hundred clients through -source replay) =="
# Fails on dropped records, classification errors, sink write failures
# or a dead /healthz. Small enough (~10s including the daemon build) to
# run on every check; BENCH_load.json proper uses 10k+ clients.
go run ./cmd/qoeload -clients 300 -pool 20 -ramp 10s -classify-every 200ms \
	-settle 45s -out /tmp/qoeload-soak.json

echo "== qoeload fleet soak (2-instance consistent-hash ring: exactly-once coverage, SIGTERM-with-snapshot) =="
# Two daemons behind one ring, fed the identical workload: fails on any
# overlap or gap in client ownership (owned sums must cover the stream
# exactly once), a missing or unloadable shutdown snapshot, or an
# unclean exit. ~10s on top of the daemon build cached above.
go run ./cmd/qoeload -clients 300 -pool 20 -ramp 10s -classify-every 200ms \
	-shapes "" -instances 2 -settle 45s -out /tmp/qoeload-fleet.json

echo "All checks passed."
