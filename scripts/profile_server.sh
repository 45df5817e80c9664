#!/bin/sh
# Server-side CPU profile of the wire path — the recipe behind every "profile
# first" in ROADMAP.md. Starts a real
#
#   logstreamd -listen 127.0.0.1:0 -wal -events … -debug-addr 127.0.0.1:0
#
# (every other flag default, as the benchmark does), posts WARM generated
# lines of DATASET into tenant t0 as 500-line POSTs on one connection
# (scripts/postlines) to warm it up and measure its rate, then posts fresh
# lines sized from that rate to keep the server busy for a CPU profile of
# SECONDS seconds, captured over exactly that part (/debug/pprof/profile).
# It prints how many seconds of CPU the profile sampled and the cumulative
# top restricted to this module, net/http, the garbage collector's
# background workers, io.ReadAll, time.Now, mutexes and map lookups. Then,
# on the now idle tenant, times the benchmark's four query shapes (p50 of
# each over 20 rounds), profiles 3 s of query rounds into $PROFILE_OUT with
# .query before .pprof, and prints the eventstore.reader.* counters: one
# open, and refreshes that read nothing. Beside the query p50s it prints the
# p50 of 20 GET /v1/tenants/t0/stats calls, the control plane's cost on the
# loaded tenant. Last, what the run cost in memory: the server's resident
# high-water mark (VmHWM of /proc/PID/status), the collector's cycle count and
# total pause (memstats in /debug/vars), and the top of a heap profile taken
# once the tenant has processed every line, left in $PROFILE_OUT with .heap
# before .pprof.
#
#   scripts/profile_server.sh [-online Drain|Spell] DATASET SECONDS [WARM]
#   scripts/profile_server.sh HDFS 4                      # the wire-hdfs shape
#   scripts/profile_server.sh -online Drain Thunderbird 8 # learn-drain
#
# WARM defaults to 100000 lines. Every line posted is a fresh one — a
# learner finds a repeated line far cheaper than a new one — so a long
# profile of a fast shape generates many: about 1.3 M lines (130 MB) per
# second of the HDFS shape on a 2-vCPU host, streamed from a file. The
# profile is left in $PROFILE_OUT (default /tmp/logstreamd.pprof) for
# `go tool pprof`. Data lives on /dev/shm when writable, like the
# benchmark's. Run from the repository root (scripts/verify.sh runs
# one-second smokes of the plain and the -online leg). Exits non-zero on a
# failed request or an empty profile.
set -eu

cd "$(dirname "$0")/.."

online=""
if [ "${1:-}" = "-online" ]; then
	online="$2"
	shift 2
fi
if [ "$#" != 2 ] && [ "$#" != 3 ]; then
	echo "usage: scripts/profile_server.sh [-online Drain|Spell] DATASET SECONDS [WARM]" >&2
	exit 2
fi
DATASET="$1"
secs="$2"
warm="${3:-100000}"
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

"$work/loggen" -dataset "$DATASET" -lines "$warm" -seed 1 2>/dev/null | cut -f3 >"$work/warm.log"

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

# The rate of the warm-up's second half sizes the measured part: one and a
# half times the lines the profile's length takes at that rate. Learners
# slow down as they grow, and an idle server adds no samples to a CPU
# profile, so the surplus costs only the wait. loggen's output for a seed
# does not depend on -lines, so the measured part is the continuation of
# the warm-up's stream.
ingest="http://$addr/v1/ingest?tenant=t0"
half=$((warm / 2))
head -n "$half" "$work/warm.log" >"$work/w1.log"
tail -n +"$((half + 1))" "$work/warm.log" >"$work/w2.log"
"$work/postlines" -url "$ingest" -in "$work/w1.log" >/dev/null
warm_s="$("$work/postlines" -url "$ingest" -in "$work/w2.log" | awk '{print $NF}')"
more="$(awk -v w="$((warm - half))" -v s="$warm_s" -v p="$secs" 'BEGIN { if (s < 0.001) s = 0.001; printf "%d", 1.5 * p * w / s + 1000 }')"
LINES=$((warm + more))
# The measured part goes in three pieces, to stamp the window [t40, t60)
# that the span query counts over.
"$work/loggen" -dataset "$DATASET" -lines "$LINES" -seed 1 2>/dev/null | cut -f3 |
	awk -v w="$warm" -v a="$((LINES * 2 / 5))" -v b="$((LINES * 3 / 5))" -v dir="$work" '
		NR <= w { next }
		NR <= a { print > (dir "/a.log"); next }
		NR <= b { print > (dir "/b.log"); next }
		{ print > (dir "/c.log") }'
echo "==> profiling $secs s over $more fresh lines after $warm warm-up lines"
curl -s -o "$out" "http://$debug/debug/pprof/profile?seconds=$secs" &
profile_pid=$!
sleep 0.2 # let the profiler start
"$work/postlines" -url "$ingest" -in "$work/a.log"
t40="$(date -u +%Y-%m-%dT%H:%M:%S.%NZ)"
"$work/postlines" -url "$ingest" -in "$work/b.log"
t60="$(date -u +%Y-%m-%dT%H:%M:%S.%NZ)"
"$work/postlines" -url "$ingest" -in "$work/c.log"
wait "$profile_pid"
[ -s "$out" ] || { echo "profile_server: FAIL: empty profile" >&2; exit 1; }

go tool pprof -top -cum -nodecount=60 \
	-show='logparse/|net/http\.|runtime\.gcBgMarkWorker|runtime\.growslice|io\.ReadAll|time\.Now|sync\.\(\*Mutex\)|runtime\.mapaccess' \
	"$work/logstreamd" "$out" 2>/dev/null >"$work/top"
# pprof's header line reads "Duration: 4.13s, Total samples = 5.02s (…)".
sed -n 's/^Duration: \([^,]*\), Total samples = \([^ ]*\) .*/==> sampled CPU: \2 over a \1 profile/p' "$work/top"
echo "==> go tool pprof -top -cum (this module, net/http, GC workers, io.ReadAll, time.Now, locks, map lookups)"
sed -n '1,70p' "$work/top"

# The query rounds ask what the benchmark's do, once the tenant is idle: the
# most frequent template's count, the top ten, a list of the rarest template
# with at least 100 events, and a count over the [t40, t60) window recorded
# while posting. Each shape's p50 is over 20 rounds on one connection.
lines="$(cat "$work/warm.log" "$work/a.log" "$work/b.log" "$work/c.log" | grep -c .)"
for _ in $(seq 1 600); do
	curl -s "http://$addr/v1/tenants/t0/stats" | grep -q "\"Processed\":$lines[,}]" && break
	sleep 0.1
done
# The heap as ingest left it, before the queries: the profile forces one
# collection, which a buffer held in a sync.Pool survives.
hout="${out%.pprof}.heap.pprof"
curl -s -o "$hout" "http://$debug/debug/pprof/heap?gc=1"
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
# The control plane beside them: an operator's stats poll, whose digest
# renders every template of the loaded tenant.
for _ in $(seq 1 20); do printf 'url = "http://%s/v1/tenants/t0/stats"\noutput = /dev/null\n' "$addr"; done |
	curl -s -K - -w '%{time_total}\n' | awk '{ print $1 * 1000 }' | sort -n |
	awk '{ v[NR] = $1 } END { printf "  stats p50 %.2f ms (GET /v1/tenants/t0/stats, 20 calls)\n", (v[10] + v[11]) / 2 }'
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
echo "==> go tool pprof -top of the heap in use once every line was processed (profile in $hout)"
go tool pprof -top -sample_index=inuse_space -nodecount=12 "$work/logstreamd" "$hout" 2>/dev/null | sed -n '1,20p'

kill -TERM "$server_pid" && wait "$server_pid"
server_pid=""
echo "profile_server: OK (profile in $out)"
