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
# background workers, io.ReadAll and time.Now. Then, on the now idle tenant,
# times the benchmark's four query shapes (p50 of each over 20 rounds),
# profiles 3 s of query rounds into $PROFILE_OUT with .query before .pprof,
# and prints the eventstore.reader.* counters: one open, and refreshes that
# read nothing. Last, what the run cost in memory: the
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
# The measured part goes in three pieces, to stamp the window [t40, t60)
# that the span query counts over.
n40=$((LINES * 2 / 5 - warm))
n60=$((LINES * 3 / 5 - warm))
head -n "$n40" "$work/rest.log" >"$work/a.log"
sed -n "$((n40 + 1)),${n60}p" "$work/rest.log" >"$work/b.log"
tail -n +"$((n60 + 1))" "$work/rest.log" >"$work/c.log"
"$work/postlines" -url "$ingest" -in "$work/a.log"
t40="$(date -u +%Y-%m-%dT%H:%M:%S.%NZ)"
"$work/postlines" -url "$ingest" -in "$work/b.log"
t60="$(date -u +%Y-%m-%dT%H:%M:%S.%NZ)"
"$work/postlines" -url "$ingest" -in "$work/c.log"
wait "$profile_pid"
[ -s "$out" ] || { echo "profile_server: FAIL: empty profile" >&2; exit 1; }

echo "==> go tool pprof -top -cum (this module, net/http, GC workers, io.ReadAll, time.Now)"
go tool pprof -top -cum -nodecount=60 \
	-show='logparse/|net/http\.|runtime\.gcBgMarkWorker|runtime\.growslice|io\.ReadAll|time\.Now' \
	"$work/logstreamd" "$out" 2>/dev/null | sed -n '1,70p'

# The query rounds ask what the benchmark's do, once the tenant is idle: the
# most frequent template's count, the top ten, a list of the rarest template
# with at least 100 events, and a count over the [t40, t60) window recorded
# while posting. Each shape's p50 is over 20 rounds on one connection.
lines="$(grep -c . "$work/lines.log")"
for _ in $(seq 1 600); do
	curl -s "http://$addr/v1/tenants/t0/stats" | grep -q "\"Processed\":$lines[,}]" && break
	sleep 0.1
done
rows="$(curl -s "http://$addr/v1/query?tenant=t0&mode=top&n=100000" |
	grep -o '"template":[0-9]*,"count":[0-9]*' | tr -c '0-9\n' ' ')"
frequent="$(echo "$rows" | awk 'NR == 1 { print $1 }')"
rare="$(echo "$rows" | awk -v f="$frequent" 'BEGIN { r = f } $2 >= 100 { r = $1 } END { print r }')"
[ -n "$frequent" ] || { echo "profile_server: FAIL: tenant t0 has no matched events" >&2; exit 1; }
shapes="mode=count&template=$frequent mode=top&n=10 mode=list&template=$rare&limit=100 mode=count&from=$t40&to=$t60"
round() { # $1 rounds of the four shapes on one connection, one time_total line per query
	for _ in $(seq 1 "$1"); do
		for q in $shapes; do printf 'url = "http://%s/v1/query?tenant=t0&%s"\noutput = /dev/null\n' "$addr" "$q"; done
	done | curl -s -K - -w '%{time_total}\n'
}
echo "==> query p50 over 20 rounds on the idle tenant (template $frequent most frequent, $rare rarest with >= 100 events)"
round 20 >"$work/times"
i=0
for name in count top list span; do
	i=$((i + 1))
	awk -v i="$i" '(NR - i) % 4 == 0 { print $1 * 1000 }' "$work/times" | sort -n |
		awk -v name="$name" '{ v[NR] = $1 } END { printf "  %-5s p50 %.2f ms\n", name, (v[10] + v[11]) / 2 }'
done
qout="${out%.pprof}.query.pprof"
echo "==> go tool pprof -top -cum of 3 s of query rounds (this module; profile in $qout)"
curl -s -o "$qout" "http://$debug/debug/pprof/profile?seconds=3" &
profile_pid=$!
sleep 0.2
while kill -0 "$profile_pid" 2>/dev/null; do round 5 >/dev/null; done
wait "$profile_pid"
go tool pprof -top -cum -nodecount=30 -show='logparse/|slices\.|runtime\.mapassign' \
	"$work/logstreamd" "$qout" 2>/dev/null | sed -n '1,40p'
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
