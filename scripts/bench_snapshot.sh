#!/bin/sh
# Benchmark snapshot: run the streaming-ingest and server-loopback
# benchmarks and write a committable JSON snapshot (lines/sec, allocs/op,
# ckpt-B/op per benchmark) so throughput can be tracked PR over PR.
#
#   scripts/bench_snapshot.sh [OUT.json]     default OUT: BENCH_PR10.json
#
# LABEL sets the label recorded in the document (default pr10-online-parsers).
# Benchmarks run three iterations each (-benchtime=3x): one iteration is
# hostage to scheduler noise on shared runners and still carries one-time
# warm-up allocations; three average that out while staying cheap enough
# for CI. bench_check.sh compares fresh runs against the committed snapshot
# and must use the same protocol. Raise BENCHTIME for stabler local
# numbers, e.g. BENCHTIME=5s.
set -eu

cd "$(dirname "$0")/.."

OUT="${1:-BENCH_PR10.json}"
LABEL="${LABEL:-pr10-online-parsers}"
BENCHTIME="${BENCHTIME:-3x}"

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "==> go test -bench 'BenchmarkStream(Ingest|PushBatch)|Benchmark(Drain|Spell)Ingest|BenchmarkSpellLearnFresh' ./internal/stream (benchtime $BENCHTIME)"
go test -run '^$' -bench '^BenchmarkStreamIngest$|^BenchmarkStreamIngestTelemetry$|^BenchmarkStreamIngestEventStore$|^BenchmarkStreamPushBatch$|^BenchmarkStreamPushBatchWAL$|^BenchmarkDrainIngest$|^BenchmarkSpellIngest$|^BenchmarkSpellLearnFresh$' \
	-benchtime "$BENCHTIME" ./internal/stream | tee "$work/bench.txt"

echo "==> go test -bench BenchmarkServerLoopback ./internal/server (benchtime $BENCHTIME)"
go test -run '^$' -bench '^BenchmarkServerLoopback$|^BenchmarkServerLoopbackWAL$' \
	-benchtime "$BENCHTIME" ./internal/server | tee -a "$work/bench.txt"

echo "==> go test -bench BenchmarkEventStoreQuery ./internal/eventstore (benchtime $BENCHTIME)"
go test -run '^$' -bench '^BenchmarkEventStoreQuery$' \
	-benchtime "$BENCHTIME" ./internal/eventstore | tee -a "$work/bench.txt"

go run ./cmd/benchjson -label "$LABEL" -commit "$commit" \
	<"$work/bench.txt" >"$OUT"

echo "bench_snapshot: wrote $OUT"
