#!/bin/sh
# Fuzz smoke: finds every native fuzz target in the module and runs each in
# its own package for 5s, replaying the committed corpora plus fresh
# coverage-guided inputs. A failure writes the crasher to the package's
# testdata/fuzz/<target>/ and stops the script. Run from anywhere.
#
# Targets are discovered with `go test -list '^Fuzz' ./...`, so a new
# Fuzz* function is picked up without editing this script or CI.
set -eu

cd "$(dirname "$0")/.."

# `go test -list` prints a package's matching names, then an
# "ok  <package>  <time>" line; pair each name with the package after it.
list="$(go test -list '^Fuzz' ./...)"
targets="$(echo "$list" | awk '
	/^Fuzz/ { names[++n] = $1; next }
	/^ok[ \t]/ { for (i = 1; i <= n; i++) print $2, names[i]; n = 0 }')"
if [ -z "$targets" ]; then
	echo "fuzz_smoke: no fuzz targets found" >&2
	exit 1
fi

count=0
echo "$targets" | {
	while read -r pkg target; do
		echo "==> go test -fuzz=$target -fuzztime=5s $pkg"
		out="$(go test "$pkg" -run '^$' -fuzz "^${target}\$" -fuzztime=5s 2>&1)" || {
			echo "$out"
			exit 1
		}
		count=$((count + 1))
	done
	echo "fuzz_smoke: $count fuzz targets ran for 5s each"
}
