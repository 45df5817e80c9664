#!/bin/sh
# Multi-tenant server smoke: start logstreamd -listen, ingest two tenants
# over HTTP, kill -9 the whole process mid-stream, restart over the same
# checkpoint root, replay both streams, and require every tenant's digest
# to equal an uninterrupted run's. A final leg exercises the graceful path:
# SIGTERM must drain, checkpoint every tenant, exit 0 — and a restarted
# server must materialize both tenants from disk at their final offsets.
# Each tenant is queried over GET /v1/query before and after the kill: the
# server's kept reader must answer what a cold logquery reads off the same
# directory, on both sides of a restart that realigns the event store.
#
#   scripts/server_smoke.sh [LINES_A] [LINES_B]    defaults 1500 / 1200
#
# Run from the repository root (scripts/verify.sh does). Exits non-zero on
# any divergence.
set -eu

cd "$(dirname "$0")/.."

LINES_A="${1:-1500}"
LINES_B="${2:-1200}"

work="$(mktemp -d)"
server_pid=""
cleanup() {
	[ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

echo "==> building logstreamd + logquery"
go build -o "$work/" ./cmd/logstreamd ./cmd/logquery

# Two deterministic, distinct tenant streams.
awk -v n="$LINES_A" 'BEGIN { for (i = 1; i <= n; i++)
	printf "connection from 10.0.%d.%d port %d\n", i % 7, i % 50, 1000 + i % 100 }' >"$work/a.log"
awk -v n="$LINES_B" 'BEGIN { for (i = 1; i <= n; i++)
	printf "block blk_%d replicated to %d nodes\n", i * 7919 % 100000, 1 + i % 3 }' >"$work/b.log"

# start_server ROOT: launches the daemon on an ephemeral port and sets
# $server_pid and $addr.
start_server() {
	rm -f "$work/addr"
	"$work/logstreamd" -listen 127.0.0.1:0 -listen-addr-file "$work/addr" \
		-checkpoint-dir "$1" -checkpoint-every 200 -retrain-batch 64 \
		-events "$1.ev" -events-block-bytes 1024 \
		>"$work/server.out" 2>"$work/server.err" &
	server_pid=$!
	for _ in $(seq 1 100); do
		[ -s "$work/addr" ] && break
		sleep 0.05
	done
	[ -s "$work/addr" ] || { echo "server_smoke: FAIL: server never bound" >&2; cat "$work/server.err" >&2; exit 1; }
	addr="$(head -n1 "$work/addr")"
}

post() { # post TENANT FILE
	code="$(curl -s -o "$work/post.out" -w '%{http_code}' --data-binary @"$2" \
		"http://$addr/v1/ingest?tenant=$1")"
	if [ "$code" != 200 ]; then
		echo "server_smoke: FAIL: ingest $1 returned HTTP $code:" >&2
		cat "$work/post.out" >&2
		exit 1
	fi
}

offset_of() { # offset_of TENANT
	curl -s "http://$addr/v1/tenants/$1/stats" | grep -o '"Offset":[0-9]*' | head -n1 | cut -d: -f2
}

digest_of() { # digest_of TENANT
	curl -s "http://$addr/v1/tenants/$1/stats" | grep -o '"digest":"[^"]*"' | cut -d'"' -f4
}

# query_matches_cold ROOT TENANT: with the tenant idle, the count over HTTP
# (the kept, refreshed reader) equals logquery's cold scan of its directory.
query_matches_cold() {
	http="$(curl -s "http://$addr/v1/query?tenant=$2&mode=count&unmatched=true" | grep -o '"count":[0-9]*' | cut -d: -f2)"
	cold="$("$work/logquery" -root "$1.ev" -tenant "$2" -unmatched -stats=false)"
	if [ -z "$http" ] || [ "$http" != "$cold" ]; then
		echo "server_smoke: FAIL: tenant $2 counts $http events over HTTP, logquery reads $cold" >&2
		exit 1
	fi
}

wait_offset() { # wait_offset TENANT N
	for _ in $(seq 1 200); do
		[ "$(offset_of "$1")" = "$2" ] && return 0
		sleep 0.05
	done
	echo "server_smoke: FAIL: tenant $1 stuck at offset $(offset_of "$1"), want $2" >&2
	exit 1
}

echo "==> uninterrupted reference run"
start_server "$work/ref"
post a "$work/a.log"
post b "$work/b.log"
wait_offset a "$LINES_A"
wait_offset b "$LINES_B"
want_a="$(digest_of a)"
want_b="$(digest_of b)"
kill -9 "$server_pid" && wait "$server_pid" 2>/dev/null || true
server_pid=""
[ -n "$want_a" ] && [ -n "$want_b" ] || { echo "server_smoke: FAIL: empty reference digest" >&2; exit 1; }

echo "==> partial ingest, then kill -9 mid-stream"
start_server "$work/live"
head -n 1000 "$work/a.log" >"$work/a.part"
head -n 800 "$work/b.log" >"$work/b.part"
post a "$work/a.part"
post b "$work/b.part"
# Let some periodic checkpoints land, then pull the plug with lines still
# in flight — everything after each tenant's last checkpoint must be
# recovered by replay, not by luck.
sleep 0.4
query_matches_cold "$work/live" a
query_matches_cold "$work/live" b
kill -9 "$server_pid" && wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "==> restart over the same root, replay both streams"
start_server "$work/live"
post a "$work/a.log"
post b "$work/b.log"
wait_offset a "$LINES_A"
wait_offset b "$LINES_B"
query_matches_cold "$work/live" a
query_matches_cold "$work/live" b
got_a="$(digest_of a)"
got_b="$(digest_of b)"
if [ "$got_a" != "$want_a" ] || [ "$got_b" != "$want_b" ]; then
	echo "server_smoke: FAIL: resumed digests diverged:" >&2
	echo "  tenant a: $got_a want $want_a" >&2
	echo "  tenant b: $got_b want $want_b" >&2
	exit 1
fi

echo "==> graceful shutdown (SIGTERM must drain + checkpoint + exit 0)"
kill -TERM "$server_pid"
status=0
wait "$server_pid" || status=$?
server_pid=""
if [ "$status" != 0 ]; then
	echo "server_smoke: FAIL: graceful shutdown exited $status:" >&2
	cat "$work/server.err" >&2
	exit 1
fi
grep -q "drained" "$work/server.err" || {
	echo "server_smoke: FAIL: no drain confirmation on stderr:" >&2
	cat "$work/server.err" >&2
	exit 1
}

echo "==> restart after graceful shutdown: tenants materialize from disk"
start_server "$work/live"
off_a="$(offset_of a)"
off_b="$(offset_of b)"
if [ "$off_a" != "$LINES_A" ] || [ "$off_b" != "$LINES_B" ]; then
	echo "server_smoke: FAIL: restored offsets a=$off_a b=$off_b, want $LINES_A/$LINES_B" >&2
	exit 1
fi
if [ "$(digest_of a)" != "$want_a" ] || [ "$(digest_of b)" != "$want_b" ]; then
	echo "server_smoke: FAIL: digests changed across a graceful restart" >&2
	exit 1
fi
query_matches_cold "$work/live" a
query_matches_cold "$work/live" b
kill -9 "$server_pid" 2>/dev/null || true
server_pid=""

echo "server_smoke: OK (a=$want_a b=$want_b)"
