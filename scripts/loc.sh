#!/bin/sh
# Non-test Go line counts — the number ROADMAP's north star tracks ("net
# non-test LoC should go down"). Prints raw lines and code-only lines
# (non-blank, not a // comment line) for the whole module and for each
# package directory under internal/. bench/ (the benchmark harness) and
# _test.go files are excluded. Run from anywhere.
#
#   scripts/loc.sh          print the table
#   scripts/loc.sh -check   print it, then fail when the code-only total is
#                           above the number committed in scripts/loc.baseline
#                           — a ratchet: a PR that shrinks the tree lowers the
#                           baseline in the same commit, one that must grow it
#                           raises it there, in the open
set -eu

cd "$(dirname "$0")/.."

case "${1:-}" in
"" | -check) ;;
*)
	echo "usage: scripts/loc.sh [-check]" >&2
	exit 2
	;;
esac

table="$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | sort |
	xargs awk '
	FNR == 1 {
		pkg = FILENAME
		sub(/^\.\//, "", pkg)
		if (pkg ~ /^internal\//) sub(/\/[^\/]*$/, "", pkg); else pkg = ""
	}
	{
		raw[pkg]++; raw["total"]++
		if ($0 !~ /^[ \t]*$/ && $0 !~ /^[ \t]*\/\//) { code[pkg]++; code["total"]++ }
	}
	END {
		printf "%-36s %8s %10s\n", "package", "raw", "code-only"
		for (p in raw) if (p != "" && p != "total") printf "%-36s %8d %10d\n", p, raw[p], code[p] | "sort"
		close("sort")
		printf "%-36s %8d %10d\n", "total (bench/ and tests excluded)", raw["total"], code["total"]
	}')"
echo "$table"

if [ "${1:-}" = -check ]; then
	total="$(echo "$table" | awk '/^total / { print $NF }')"
	baseline="$(cat scripts/loc.baseline)"
	if [ "$total" -gt "$baseline" ]; then
		echo "loc: code-only total $total is above the committed baseline $baseline (scripts/loc.baseline)" >&2
		exit 1
	fi
	echo "loc: code-only total $total <= baseline $baseline"
fi
