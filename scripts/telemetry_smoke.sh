#!/bin/sh
# Telemetry smoke: start logstreamd with an ephemeral debug endpoint, ingest
# a small generated dataset, and probe /debug/vars + /debug/pprof from the
# outside (scripts/debugprobe, stdlib-only — no curl dependency). Verifies
# the live-metrics path end to end: the engine's Stats published as the
# "stream" expvar, the "logstream" metrics beside it, and the pprof mux.
#
# Two legs: a fresh run, and a run killed with -kill-after-lines and then
# resumed from its checkpoint. Both must publish Processed equal to the
# dataset's full line count — the resumed run included, whose counts carry
# over from the checkpoint — and equal to the process's own stats line.
#
# Run from the repository root (scripts/verify.sh does). Exits non-zero on
# any failure.
set -eu

cd "$(dirname "$0")/.."

DATASET="${1:-Zookeeper}"
LINES="${2:-3000}"

work="$(mktemp -d)"
daemon_pid=""
cleanup() {
	if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
		kill -INT "$daemon_pid" 2>/dev/null || true
		wait "$daemon_pid" 2>/dev/null || true
	fi
	rm -rf "$work"
}
trap cleanup EXIT

echo "==> building logstreamd + debugprobe"
go build -o "$work/logstreamd" ./cmd/logstreamd
go build -o "$work/debugprobe" ./scripts/debugprobe

# probe CKPT_DIR [FLAGS...]: run logstreamd over the dataset with the debug
# endpoint and -linger, require the published Processed to reach exactly
# $LINES and the stats line to agree, then stop it.
probe() {
	ck="$1"
	shift
	rm -f "$work/addr"
	"$work/logstreamd" -dataset "$DATASET" -lines "$LINES" -checkpoint-dir "$ck" "$@" \
		-debug-addr 127.0.0.1:0 -debug-addr-file "$work/addr" -linger \
		>"$work/daemon.log" 2>&1 &
	daemon_pid=$!

	# The daemon writes its bound address once the listener is up.
	i=0
	while [ ! -s "$work/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 50 ]; then
			echo "telemetry_smoke: debug address file never appeared" >&2
			cat "$work/daemon.log" >&2 || true
			exit 1
		fi
		if ! kill -0 "$daemon_pid" 2>/dev/null; then
			echo "telemetry_smoke: logstreamd exited before serving" >&2
			cat "$work/daemon.log" >&2 || true
			exit 1
		fi
		sleep 0.2
	done
	addr="$(cat "$work/addr")"

	echo "==> probing http://$addr/debug/vars (want Processed = $LINES)"
	"$work/debugprobe" -addr "$addr" -processed "$LINES"

	# The stats lines are printed once the source drains, before lingering.
	i=0
	until grep -q "source drained" "$work/daemon.log"; do
		i=$((i + 1))
		if [ "$i" -gt 50 ]; then
			echo "telemetry_smoke: logstreamd never finished the source" >&2
			cat "$work/daemon.log" >&2 || true
			exit 1
		fi
		sleep 0.2
	done
	if ! grep -q " processed=$LINES " "$work/daemon.log"; then
		echo "telemetry_smoke: the stats line disagrees with the published Processed=$LINES" >&2
		cat "$work/daemon.log" >&2
		exit 1
	fi

	kill -INT "$daemon_pid"
	wait "$daemon_pid"
	daemon_pid=""
}

echo "==> leg 1: fresh run"
probe "$work/ck1"

every=$((LINES / 3))
kill_at=$((2 * LINES / 3))
echo "==> leg 2: killed after line $kill_at (checkpoint every $every), then resumed"
code=0
"$work/logstreamd" -dataset "$DATASET" -lines "$LINES" -checkpoint-dir "$work/ck2" \
	-checkpoint-every "$every" -kill-after-lines "$kill_at" >/dev/null 2>"$work/kill.log" || code=$?
if [ "$code" -ne 3 ]; then
	echo "telemetry_smoke: killed run exited $code, want 3 (simulated crash)" >&2
	cat "$work/kill.log" >&2
	exit 1
fi
probe "$work/ck2" -checkpoint-every "$every"
grep -q "restored current checkpoint" "$work/daemon.log" || {
	echo "telemetry_smoke: the resumed run did not restore a checkpoint" >&2
	cat "$work/daemon.log" >&2
	exit 1
}

echo "telemetry_smoke: OK"
