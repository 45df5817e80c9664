#!/bin/sh
# Tier-1 verification: build, vet, and race-checked tests for the whole
# module. Run from the repository root.
#
# Modes:
#
#   scripts/verify.sh          full: build + vet + race tests + telemetry
#                              invariant tests + live /debug/vars endpoint
#                              smoke + golden-digest check + crash-recovery
#                              smoke + multi-tenant server smoke +
#                              WAL and event-store crash smokes + the
#                              server-profile recipe on 20 k lines (matcher
#                              and learner legs) + the four examples/ +
#                              the SLCT stream-equals-batch smoke + the
#                              committed results/ Tables I–III regenerated
#                              byte for byte + a 5s
#                              fuzz smoke pass per
#                              fuzz target + the LoC ratchet
#                              (scripts/loc.sh -check)
#   scripts/verify.sh -short   fast: build + vet + `go test -short -race` +
#                              the LoC ratchet + the golden-digest check
#                              (byte for byte, all 36 goldens) +
#                              reduced crash-recovery and
#                              server smokes + the SLCT smoke + Table I
#                              against results/table1.txt
#                              (skips the long-running suites and the fuzz
#                              smokes; the conformance differential matrix
#                              still runs at reduced breadth)
set -eu

cd "$(dirname "$0")/.."

short=0
case "${1:-}" in
-short | --short) short=1 ;;
"") ;;
*)
	echo "usage: scripts/verify.sh [-short]" >&2
	exit 2
	;;
esac

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

if [ "$short" = 1 ]; then
	echo "==> go test -short -race ./..."
	go test -short -race ./...
	echo "==> non-test Go line counts against the committed baseline (scripts/loc.sh -check)"
	sh scripts/loc.sh -check >/dev/null
	echo "==> golden-digest check (cmd/conformgen -check)"
	go run ./cmd/conformgen -check >/dev/null
	echo "==> crash-recovery smoke, retrain and -online Drain (reduced)"
	sh scripts/crash_smoke.sh Zookeeper 3000 2345
	echo "==> multi-tenant server smoke (reduced)"
	sh scripts/server_smoke.sh 800 600
	echo "==> WAL crash smoke (reduced)"
	sh scripts/wal_crash_smoke.sh 3 1500
	echo "==> event-store crash smoke (reduced)"
	sh scripts/events_smoke.sh 3000 1200
	echo "==> SLCT stream-equals-batch smoke (scripts/slct_smoke.sh)"
	sh scripts/slct_smoke.sh
	echo "==> committed results reproduce (scripts/results_check.sh -short: Table I)"
	sh scripts/results_check.sh -short
	echo "verify: OK (short)"
	exit 0
fi

echo "==> go test -race ./..."
go test -race ./...

echo "==> telemetry invariants (go test -race ./internal/telemetry/...)"
go test -race ./internal/telemetry/...

echo "==> telemetry/pprof endpoint smoke (scripts/telemetry_smoke.sh)"
sh scripts/telemetry_smoke.sh

echo "==> crash-recovery smoke, retrain and -online Drain (scripts/crash_smoke.sh)"
sh scripts/crash_smoke.sh

echo "==> multi-tenant server smoke (scripts/server_smoke.sh)"
sh scripts/server_smoke.sh

echo "==> WAL crash smoke (scripts/wal_crash_smoke.sh)"
sh scripts/wal_crash_smoke.sh

echo "==> event-store crash smoke (scripts/events_smoke.sh)"
sh scripts/events_smoke.sh

echo "==> SLCT stream-equals-batch smoke (scripts/slct_smoke.sh)"
sh scripts/slct_smoke.sh

echo "==> server profile recipe smoke (scripts/profile_server.sh HDFS 1 20000, -online Spell Thunderbird 1 20000)"
prof="$(mktemp)"
PROFILE_OUT="$prof" sh scripts/profile_server.sh HDFS 1 20000 >"$prof.out"
grep '^server memory: VmHWM' "$prof.out"
PROFILE_OUT="$prof" sh scripts/profile_server.sh -online Spell Thunderbird 1 20000 >"$prof.out"
grep '^server memory: VmHWM' "$prof.out"
rm -f "$prof" "$prof.out" "$prof.query.pprof"

echo "==> golden-digest check (cmd/conformgen -check)"
go run ./cmd/conformgen -check >/dev/null

echo "==> committed results reproduce (scripts/results_check.sh: Tables I, III, II)"
sh scripts/results_check.sh

echo "==> examples (each must exit 0)"
for e in examples/*/; do
	go run "./$e" >/dev/null
done

# Short fuzz smoke over every native fuzz target the module declares:
# replays the committed corpora plus 5 seconds of fresh coverage-guided
# inputs each. A failure writes the crasher to the package's
# testdata/fuzz/<target>/.
echo "==> fuzz smoke (scripts/fuzz_smoke.sh)"
sh scripts/fuzz_smoke.sh
echo "==> go test -run TestCheckpointChainModel ./internal/stream (seeded op-sequence model)"
go test ./internal/stream -count=1 -run '^TestCheckpointChainModel$' >/dev/null
echo "==> go test -bench 'EventStore(List|Seal|Top)' -benchtime 1x ./internal/eventstore (service- and learner-shaped corpus smoke)"
go test ./internal/eventstore -run '^$' -bench 'EventStore(List|Seal|Top)' -benchtime 1x >/dev/null

echo "==> non-test Go line counts against the committed baseline (scripts/loc.sh -check)"
sh scripts/loc.sh -check

echo "verify: OK"
