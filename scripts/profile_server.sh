#!/bin/sh
# Server-side CPU profile of the wire path — the recipe behind every "profile
# first" in ROADMAP.md. Starts a real
#
#   logstreamd -listen 127.0.0.1:0 -wal -events … -debug-addr 127.0.0.1:0
#
# (every other flag default, as the benchmark does), replays LINES generated
# lines of DATASET into tenant t0 as 500-line POSTs on one connection
# (scripts/postlines), captures /debug/pprof/profile over the measured part
# only — the first tenth of the lines is warm-up — and prints the cumulative
# top restricted to this module, net/http, the garbage collector's
# background workers, io.ReadAll and time.Now. Then runs ten query rounds on
# the now idle tenant and prints the eventstore.reader.* counters: one open,
# and refreshes that read nothing. Last, what the run cost in memory: the
# server's resident high-water mark (VmHWM of /proc/PID/status) and the
# collector's cycle count and total pause (memstats in /debug/vars).
#
#   scripts/profile_server.sh [-online Drain|Spell] DATASET LINES
#   scripts/profile_server.sh HDFS 3000000                 # the wire-hdfs shape
#   scripts/profile_server.sh -online Drain Thunderbird 2000000   # learn-drain
#
# The profile is left in $PROFILE_OUT (default /tmp/logstreamd.pprof) for
# `go tool pprof`. Data lives on /dev/shm when writable, like the
# benchmark's. Run from the repository root (scripts/verify.sh runs 20 k-line
# smokes of the plain and the -online leg). Exits non-zero on a failed request
# or an empty profile.
set -eu

cd "$(dirname "$0")/.."

online=""
if [ "${1:-}" = "-online" ]; then
	online="$2"
	shift 2
fi
if [ "$#" != 2 ]; then
	echo "usage: scripts/profile_server.sh [-online Drain|Spell] DATASET LINES" >&2
	exit 2
fi
DATASET="$1"
LINES="$2"
out="${PROFILE_OUT:-/tmp/logstreamd.pprof}"

base=/dev/shm
[ -w "$base" ] || base="${TMPDIR:-/tmp}"
work="$(mktemp -d "$base/profile_server.XXXXXX")"
server_pid=""
cleanup() {
	[ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

echo "==> building logstreamd + loggen + postlines"
go build -o "$work/" ./cmd/logstreamd ./cmd/loggen ./scripts/postlines

"$work/loggen" -dataset "$DATASET" -lines "$LINES" -seed 1 2>/dev/null | cut -f3 >"$work/lines.log"

echo "==> starting logstreamd -listen -wal -events${online:+ -online $online}"
"$work/logstreamd" -listen 127.0.0.1:0 -listen-addr-file "$work/addr" \
	-checkpoint-dir "$work/ckpt" -wal -events "$work/ev" ${online:+-online "$online"} \
	-debug-addr 127.0.0.1:0 -debug-addr-file "$work/debug" \
	>/dev/null 2>"$work/server.err" &
server_pid=$!
for _ in $(seq 1 100); do
	[ -s "$work/addr" ] && [ -s "$work/debug" ] && break
	sleep 0.05
done
[ -s "$work/addr" ] && [ -s "$work/debug" ] || {
	echo "profile_server: FAIL: server never bound" >&2
	cat "$work/server.err" >&2
	exit 1
}
addr="$(head -n1 "$work/addr")"
debug="$(head -n1 "$work/debug")"

# The warm-up tenth also sizes the profile: learners slow down as they grow,
# so leave headroom — an idle server adds no samples to a CPU profile, and
# overshooting costs only the wait.
warm=$((LINES / 10))
head -n "$warm" "$work/lines.log" >"$work/warm.log"
tail -n +"$((warm + 1))" "$work/lines.log" >"$work/rest.log"
ingest="http://$addr/v1/ingest?tenant=t0"
warm_s="$("$work/postlines" -url "$ingest" -in "$work/warm.log" | awk '{print $NF}')"
secs="$(awk -v s="$warm_s" 'BEGIN { printf "%d", 1.5 * 9 * s + 2 }')"
echo "==> profiling $secs s over the measured part"
curl -s -o "$out" "http://$debug/debug/pprof/profile?seconds=$secs" &
profile_pid=$!
sleep 0.2 # let the profiler start
"$work/postlines" -url "$ingest" -in "$work/rest.log"
wait "$profile_pid"
[ -s "$out" ] || { echo "profile_server: FAIL: empty profile" >&2; exit 1; }

echo "==> go tool pprof -top -cum (this module, net/http, GC workers, io.ReadAll, time.Now)"
go tool pprof -top -cum -nodecount=60 \
	-show='logparse/|net/http\.|runtime\.gcBgMarkWorker|runtime\.growslice|io\.ReadAll|time\.Now' \
	"$work/logstreamd" "$out" 2>/dev/null | sed -n '1,70p'

echo "==> ten query rounds on the idle tenant"
for _ in $(seq 1 10); do
	for q in 'mode=count&template=0' 'mode=top&n=10' 'mode=list&template=1&limit=100' 'mode=count&from=2020-01-01T00:00:00Z'; do
		curl -s -o /dev/null "http://$addr/v1/query?tenant=t0&$q"
	done
done
curl -s "http://$debug/debug/vars" | grep -o '"eventstore\.reader\.[a-z_]*": *[0-9]*' || {
	echo "profile_server: FAIL: no eventstore.reader.* counters in /debug/vars" >&2
	exit 1
}

hwm="$(awk '/^VmHWM:/ { print $2, $3 }' "/proc/$server_pid/status")"
gc="$(curl -s "http://$debug/debug/vars" | grep -o '"\(NumGC\|PauseTotalNs\)":[0-9]*' | awk -F'[":]+' '{ printf "%s%s %s", sep, $2, $3; sep = ", " }')"
[ -n "$hwm" ] && [ -n "$gc" ] || {
	echo "profile_server: FAIL: no VmHWM in /proc/$server_pid/status or no memstats in /debug/vars" >&2
	exit 1
}
echo "server memory: VmHWM $hwm, $gc"

kill -TERM "$server_pid" && wait "$server_pid"
server_pid=""
echo "profile_server: OK (profile in $out)"
