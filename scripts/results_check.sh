#!/bin/sh
# Results check: the committed tables in results/ reproduce byte for byte.
# Regenerates each one with the command EXPERIMENTS.md names and diffs it
# against the committed copy:
#
#   results/table1.txt   logeval -table1                (instant)
#   results/table3.txt   loganomaly -sessions 12000     (≈ 25 s on 2 vCPUs)
#   results/table2.txt   logeval -table2                (≈ 2 min on 2 vCPUs)
#
# loganomaly's default -sessions 8000 is a different run; table3.txt is the
# 12,000-session one.
#
#   scripts/results_check.sh          all three tables
#   scripts/results_check.sh -short   Table I only
#
# Run from anywhere (scripts/verify.sh does). Exits non-zero when a table
# differs, printing the diff.
set -eu

cd "$(dirname "$0")/.."

short=0
case "${1:-}" in
-short) short=1 ;;
"") ;;
*)
	echo "usage: scripts/results_check.sh [-short]" >&2
	exit 2
	;;
esac

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
go build -o "$work/logeval" ./cmd/logeval
go build -o "$work/loganomaly" ./cmd/loganomaly

# check NAME CMD...: run CMD and require its stdout to equal results/NAME.
check() {
	name="$1"
	shift
	echo "==> results/$name: $*"
	"$@" >"$work/$name"
	diff -u "results/$name" "$work/$name"
}

check table1.txt "$work/logeval" -table1
if [ "$short" = 1 ]; then
	exit 0
fi
check table3.txt "$work/loganomaly" -sessions 12000
check table2.txt "$work/logeval" -table2
