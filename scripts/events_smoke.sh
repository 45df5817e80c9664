#!/bin/sh
# Event-store crash smoke: the no-finalized-loss contract, end to end
# through the CLIs. Run logstreamd with -events over a generated dataset,
# kill it mid-stream (exit 3, no final checkpoint), query the crash-scarred
# store read-only, resume over the same directories, and require:
#
#   1. the resumed digest equals an uninterrupted run's digest (recording
#      never perturbs parsing);
#   2. logquery's unbounded count over the recovered store equals the
#      engine's matched counter exactly (the store is a faithful history,
#      crash and realign included);
#   3. the store's top template count survives a template-restricted,
#      skip-scanning query;
#   4. over the wire (-listen -wal -events), GET /v1/query — the server's
#      kept reader — counts what a cold logquery reads off the tenant's
#      directory, before a kill -9 and after the restart has realigned and
#      refilled the store, where it also equals the engine's matched total.
#
#   scripts/events_smoke.sh [LINES] [KILL]    defaults 6000 / 2500
#
# Run from the repository root (scripts/verify.sh does).
set -eu

cd "$(dirname "$0")/.."

LINES="${1:-6000}"
KILL="${2:-2500}"

work="$(mktemp -d)"
server_pid=""
cleanup() {
	[ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

echo "==> building logstreamd + logquery + loggen"
go build -o "$work/" ./cmd/logstreamd ./cmd/logquery ./cmd/loggen

run() { # run CKPT EVENTS EXTRA... -> digest on stdout, stats in $work/stats
	ck="$1"; ev="$2"; shift 2
	"$work/logstreamd" -dataset HDFS -lines "$LINES" -seed 7 \
		-checkpoint-dir "$ck" -events "$ev" -events-block-bytes 8192 \
		-checkpoint-every 500 -digest "$@" 2>"$work/stats"
}

matched_of() {
	grep -o 'matched=[0-9]*' "$work/stats" | head -n1 | cut -d= -f2
}

echo "==> uninterrupted reference run"
want="$(run "$work/ref_ck" "$work/ref_ev")"
want_matched="$(matched_of)"
[ -n "$want" ] || { echo "events_smoke: FAIL: empty reference digest" >&2; exit 1; }
ref_count="$("$work/logquery" -dir "$work/ref_ev" -stats=false)"
if [ "$ref_count" != "$want_matched" ]; then
	echo "events_smoke: FAIL: reference store counts $ref_count events, engine matched $want_matched" >&2
	exit 1
fi

echo "==> crash run (kill after line $KILL)"
if run "$work/ck" "$work/ev" -kill-after-lines "$KILL"; then
	echo "events_smoke: FAIL: crash run exited 0" >&2
	exit 1
elif [ "$?" != 3 ]; then
	echo "events_smoke: FAIL: crash run exited $? (want 3)" >&2
	exit 1
fi

# The torn store must still answer read-only queries (verified prefix).
"$work/logquery" -dir "$work/ev" -stats=false >/dev/null || {
	echo "events_smoke: FAIL: logquery cannot read the crash-scarred store" >&2
	exit 1
}

echo "==> resume over the same directories"
got="$(run "$work/ck" "$work/ev")"
got_matched="$(matched_of)"
if [ "$got" != "$want" ]; then
	echo "events_smoke: FAIL: resumed digest $got, want $want" >&2
	exit 1
fi
count="$("$work/logquery" -dir "$work/ev" -stats=false)"
if [ "$count" != "$got_matched" ]; then
	echo "events_smoke: FAIL: recovered store counts $count events, engine matched $got_matched" >&2
	exit 1
fi

# Skip-scan sanity: the top template's count survives a template-restricted
# query (which may skip blocks) and matches the full top listing.
top="$("$work/logquery" -dir "$work/ev" -mode top -n 1 -stats=false)"
top_id="$(echo "$top" | awk '{print $2}')"
top_count="$(echo "$top" | awk '{print $1}')"
sel="$("$work/logquery" -dir "$work/ev" -template "$top_id" -stats=false)"
if [ "$sel" != "$top_count" ]; then
	echo "events_smoke: FAIL: template $top_id counts $sel selected vs $top_count in top listing" >&2
	exit 1
fi

echo "==> wire leg: /v1/query against a cold logquery, before and after kill -9"
"$work/loggen" -dataset HDFS -lines "$LINES" -seed 7 | cut -f3 >"$work/all.log"
head -n "$KILL" "$work/all.log" >"$work/part.log"

start_server() {
	rm -f "$work/addr"
	"$work/logstreamd" -listen 127.0.0.1:0 -listen-addr-file "$work/addr" \
		-checkpoint-dir "$work/wck" -wal -events "$work/wev" -events-block-bytes 8192 \
		-checkpoint-every 500 >/dev/null 2>"$work/server.err" &
	server_pid=$!
	for _ in $(seq 1 100); do
		[ -s "$work/addr" ] && break
		sleep 0.05
	done
	[ -s "$work/addr" ] || { echo "events_smoke: FAIL: server never bound" >&2; cat "$work/server.err" >&2; exit 1; }
	addr="$(head -n1 "$work/addr")"
}
stat_of() { # stat_of FIELD
	curl -s "http://$addr/v1/tenants/t/stats" | grep -o "\"$1\":[0-9]*" | head -n1 | cut -d: -f2
}
post_and_drain() { # post_and_drain FILE LINES
	curl -s -o /dev/null --data-binary @"$1" "http://$addr/v1/ingest?tenant=t"
	for _ in $(seq 1 200); do
		[ "$(stat_of Offset)" = "$2" ] && return 0
		sleep 0.05
	done
	echo "events_smoke: FAIL: tenant stuck at offset $(stat_of Offset), want $2" >&2
	exit 1
}
http_count() {
	curl -s "http://$addr/v1/query?tenant=t&mode=count" | grep -o '"count":[0-9]*' | cut -d: -f2
}
http_equals_cold() { # http_equals_cold WHEN
	http="$(http_count)"
	cold="$("$work/logquery" -root "$work/wev" -tenant t -stats=false)"
	if [ -z "$http" ] || [ "$http" = 0 ] || [ "$http" != "$cold" ]; then
		echo "events_smoke: FAIL: $1: /v1/query counts $http events, logquery reads $cold" >&2
		exit 1
	fi
}

start_server
post_and_drain "$work/part.log" "$KILL"
http_equals_cold "before the kill"
kill -9 "$server_pid" && wait "$server_pid" 2>/dev/null || true
start_server
post_and_drain "$work/all.log" "$LINES"
http_equals_cold "after the restart"
kill -TERM "$server_pid" && wait "$server_pid"
start_server
wire_matched="$(stat_of Matched)"
http_equals_cold "after the drain"
if [ "$(http_count)" != "$wire_matched" ]; then
	echo "events_smoke: FAIL: drained store counts $(http_count) events, engine matched $wire_matched" >&2
	exit 1
fi
kill -9 "$server_pid" 2>/dev/null || true
server_pid=""

echo "events_smoke: OK (digest $got, $count events, top template $top_id x$top_count)"
