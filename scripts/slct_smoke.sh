#!/bin/sh
# SLCT smoke: the streaming parse (logparse -stream) and the batch parse
# (logparse -parser SLCT) are one SLCT, so over the same file they must
# write byte-identical events files.
#
# Two legs: a generated dataset (default HPC, 20000 lines, seed 7, support
# fraction 0.02), and a file whose first line is longer than the 4 MiB
# line cap — both modes must truncate it, exit 0 and agree.
#
#   scripts/slct_smoke.sh [DATASET [LINES]]
#
# Run from anywhere (scripts/verify.sh does). Exits non-zero on any failure.
set -eu

cd "$(dirname "$0")/.."

DATASET="${1:-HPC}"
LINES="${2:-20000}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "==> building loggen + logparse"
go build -o "$work/loggen" ./cmd/loggen
go build -o "$work/logparse" ./cmd/logparse

# same LOG FLAGS...: parse LOG in batch and in stream mode with FLAGS and
# require both to exit 0 with byte-identical events files.
same() {
	log="$1"
	shift
	"$work/logparse" -in "$log" -parser SLCT "$@" -events "$work/batch.events" 2>"$work/batch.err" || {
		cat "$work/batch.err" >&2
		echo "slct_smoke: batch SLCT failed on $log" >&2
		exit 1
	}
	"$work/logparse" -in "$log" -stream "$@" -events "$work/stream.events" 2>"$work/stream.err" || {
		cat "$work/stream.err" >&2
		echo "slct_smoke: -stream failed on $log" >&2
		exit 1
	}
	if ! cmp "$work/batch.events" "$work/stream.events"; then
		diff "$work/batch.events" "$work/stream.events" >&2 || true
		echo "slct_smoke: -stream and batch SLCT disagree on $log" >&2
		exit 1
	fi
	echo "slct_smoke: $(wc -l <"$work/batch.events") identical templates ($log $*)"
}

"$work/loggen" -dataset "$DATASET" -lines "$LINES" -seed 7 >"$work/gen.log"
same "$work/gen.log" -support-frac 0.02

# One line of 4 MiB + 6 bytes, then two recurring events.
awk 'BEGIN {
	s = "xxxxxxxxxxxxxxxx"
	while (length(s) < 4194304) s = s s
	print s "xxxxxx"
	for (i = 1; i <= 5; i++) print "alpha beta " i
	for (i = 1; i <= 20; i++) print "gamma delta " i
}' >"$work/big.log"
same "$work/big.log" -support 3

echo "slct_smoke: OK"
