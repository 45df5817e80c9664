#!/bin/sh
# WAL crash smoke: the zero-acked-loss contract, end to end over the wire.
# Start logstreamd with -wal, feed one tenant in small HTTP batches while a
# background kill -9 lands at a randomized batch offset, restart over the
# same root, and — BEFORE any client replay — require the recovered offset
# to cover every line whose batch was acknowledged with HTTP 200. Repeat
# for several iterations over the same root (each crash compounds on the
# last recovery), then replay the full stream and require the digest of an
# uninterrupted run.
#
#   scripts/wal_crash_smoke.sh [ITERATIONS] [LINES]    defaults 10 / 3000
#
# Kill offsets are drawn from a per-iteration seeded PRNG, so a failure
# reproduces by rerunning with the same arguments. Run from the repository
# root (scripts/verify.sh does). Exits non-zero on any acked-line loss or
# digest divergence.
set -eu

cd "$(dirname "$0")/.."

ITERS="${1:-10}"
LINES="${2:-3000}"
BATCH=50

work="$(mktemp -d)"
server_pid=""
cleanup() {
	[ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

echo "==> building logstreamd"
go build -o "$work/logstreamd" ./cmd/logstreamd

# One deterministic tenant stream, pre-split into the batches the feeder
# acknowledges one at a time.
awk -v n="$LINES" 'BEGIN { for (i = 1; i <= n; i++)
	printf "session %d opened for user u%d from 172.16.%d.%d\n", i, i % 23, i % 13, i % 200 }' >"$work/t.log"
mkdir "$work/batches"
split -l "$BATCH" -a 4 "$work/t.log" "$work/batches/b"
nbatches=$(( (LINES + BATCH - 1) / BATCH ))

# start_server ROOT: launches the daemon with the WAL on and sets
# $server_pid and $addr.
start_server() {
	rm -f "$work/addr"
	"$work/logstreamd" -listen 127.0.0.1:0 -listen-addr-file "$work/addr" \
		-checkpoint-dir "$1" -wal -checkpoint-every 200 -retrain-batch 64 \
		>>"$work/server.out" 2>>"$work/server.err" &
	server_pid=$!
	for _ in $(seq 1 100); do
		[ -s "$work/addr" ] && break
		sleep 0.05
	done
	[ -s "$work/addr" ] || { echo "wal_crash_smoke: FAIL: server never bound" >&2; cat "$work/server.err" >&2; exit 1; }
	addr="$(head -n1 "$work/addr")"
}

stop_server() {
	[ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
	wait "$server_pid" 2>/dev/null || true
	server_pid=""
}

post() { # post FILE -> 0 on HTTP 200
	code="$(curl -s -o "$work/post.out" -w '%{http_code}' --data-binary @"$1" \
		"http://$addr/v1/ingest?tenant=t" 2>/dev/null)" || return 1
	[ "$code" = 200 ]
}

offset_of() {
	curl -s "http://$addr/v1/tenants/t/stats" 2>/dev/null | grep -o '"Offset":[0-9]*' | head -n1 | cut -d: -f2
}

digest_of() {
	curl -s "http://$addr/v1/tenants/t/stats" | grep -o '"digest":"[^"]*"' | cut -d'"' -f4
}

wait_offset_at_least() { # wait_offset_at_least N WHY
	for _ in $(seq 1 200); do
		off="$(offset_of || true)"
		[ -n "$off" ] && [ "$off" -ge "$1" ] && return 0
		sleep 0.05
	done
	echo "wal_crash_smoke: FAIL: $2: offset ${off:-?} never reached $1" >&2
	cat "$work/server.err" >&2
	exit 1
}

echo "==> uninterrupted reference run"
start_server "$work/ref"
post "$work/t.log" || { echo "wal_crash_smoke: FAIL: reference ingest:" >&2; cat "$work/post.out" >&2; exit 1; }
wait_offset_at_least "$LINES" "reference run"
want="$(digest_of)"
stop_server
[ -n "$want" ] || { echo "wal_crash_smoke: FAIL: empty reference digest" >&2; exit 1; }

root="$work/live"
i=1
while [ "$i" -le "$ITERS" ]; do
	# The kill arms after a seeded-random acknowledged batch and lands a
	# random beat later — mid-batch, mid-fsync, wherever the race falls.
	arm="$(awk -v s="$i" -v n="$nbatches" 'BEGIN { srand(s * 7919); print 2 + int(rand() * (n - 4)) }')"
	lag="$(awk -v s="$i" 'BEGIN { srand(s * 104729); printf "%.3f", rand() * 0.15 }')"

	start_server "$root"
	acked=0
	n=0
	for f in "$work"/batches/b*; do
		post "$f" || break
		n=$((n + 1))
		acked=$((n * BATCH))
		if [ "$n" -eq "$arm" ]; then
			( sleep "$lag"; kill -9 "$server_pid" 2>/dev/null ) &
		fi
	done
	stop_server

	# Restart over the same root: the WAL replay alone must cover every
	# acknowledged line — the client has not replayed anything yet.
	start_server "$root"
	wait_offset_at_least "$acked" "iteration $i lost acked lines (acked=$acked)"
	curl -s "http://$addr/v1/tenants/t/stats" | grep -q '"WALEnabled":true' || {
		echo "wal_crash_smoke: FAIL: tenant recovered without a WAL" >&2
		exit 1
	}
	echo "    iteration $i: armed after batch $arm/$nbatches, acked $acked, recovered $(offset_of)"
	stop_server
	i=$((i + 1))
done

echo "==> full replay over the crash-scarred root"
start_server "$root"
post "$work/t.log" || { echo "wal_crash_smoke: FAIL: replay ingest:" >&2; cat "$work/post.out" >&2; exit 1; }
wait_offset_at_least "$LINES" "full replay"
got="$(digest_of)"
if [ "$got" != "$want" ]; then
	echo "wal_crash_smoke: FAIL: digest after $ITERS crashes = $got, want $want" >&2
	exit 1
fi
stop_server

echo "wal_crash_smoke: OK ($ITERS crash cycles, digest $got)"
