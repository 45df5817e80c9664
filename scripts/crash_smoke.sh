#!/bin/sh
# Crash-recovery smoke: kill logstreamd at an exact stream position (a
# simulated crash writes no final checkpoint), resume it over the same
# source, and require the resumed run's canonical digest to equal an
# uninterrupted run's. A second leg tears a checkpoint write mid-stream
# (-torn-checkpoint-limit) before the kill, leaving a torn tail in the
# checkpoint delta log: the resumed run must stop the chain there, resume
# from the save before the torn one — and still converge.
#
# Run from the repository root (scripts/verify.sh does). Exits non-zero on
# any divergence.
set -eu

cd "$(dirname "$0")/.."

DATASET="${1:-Zookeeper}"
LINES="${2:-5000}"
KILL="${3:-2345}"

# Checkpoints land every 700 lines. The torn leg tears the third save (after
# line 2100) and dies on the very next line: a failed save is retried on
# every line until it lands, and the retry would repair the torn tail.
TORN_KILL=2101
if [ "$KILL" -le 700 ] || [ "$LINES" -le "$KILL" ] || [ "$LINES" -le "$TORN_KILL" ]; then
	echo "crash_smoke: KILL must be in (700, LINES) and LINES above $TORN_KILL" >&2
	exit 2
fi
# The kill hook fires before a due checkpoint, so a kill on a multiple of 700
# restores the save before it.
restored=$(((KILL - 1) / 700 * 700))

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "==> building logstreamd"
go build -o "$work/logstreamd" ./cmd/logstreamd

common="-dataset $DATASET -lines $LINES -checkpoint-every 700 -retrain-batch 64 -stats=false"

echo "==> uninterrupted run ($DATASET, $LINES lines)"
want="$("$work/logstreamd" $common -checkpoint-dir "$work/clean" -digest)"

echo "==> crash run (kill after line $KILL, no checkpoint)"
status=0
"$work/logstreamd" $common -checkpoint-dir "$work/crash" -kill-after-lines "$KILL" || status=$?
if [ "$status" != 3 ]; then
	echo "crash_smoke: FAIL: simulated crash exited $status, want 3" >&2
	exit 1
fi

echo "==> resumed run"
got="$("$work/logstreamd" $common -checkpoint-dir "$work/crash" -digest 2>"$work/crash.log")"
if ! grep -q "restored current checkpoint base + .* offset $restored)" "$work/crash.log"; then
	echo "crash_smoke: FAIL: resumed run did not restore the newest save (offset $restored):" >&2
	cat "$work/crash.log" >&2
	exit 1
fi
if [ "$got" != "$want" ]; then
	echo "crash_smoke: FAIL: resumed digest $got != uninterrupted $want" >&2
	exit 1
fi

echo "==> torn-checkpoint crash run (third checkpoint save torn at 50 bytes)"
status=0
"$work/logstreamd" $common -checkpoint-dir "$work/torn" \
	-torn-checkpoint-at 3 -kill-after-lines "$TORN_KILL" || status=$?
if [ "$status" != 3 ]; then
	echo "crash_smoke: FAIL: torn crash exited $status, want 3" >&2
	exit 1
fi

echo "==> resumed run after torn checkpoint (expect the second save: the torn third is the only loss)"
got="$("$work/logstreamd" $common -checkpoint-dir "$work/torn" -digest 2>"$work/torn.log")"
if ! grep -q "restored current checkpoint base + .* (generation 2, offset 1400)" "$work/torn.log"; then
	# Offset 2100 would mean the tear never happened, anything below 1400
	# that a torn tail cost more than its own save.
	echo "crash_smoke: FAIL: resumed run did not stop the delta chain at the torn third save:" >&2
	cat "$work/torn.log" >&2
	exit 1
fi
if [ "$got" != "$want" ]; then
	echo "crash_smoke: FAIL: torn-recovery digest $got != uninterrupted $want" >&2
	exit 1
fi

echo "crash_smoke: OK (digest $want)"
