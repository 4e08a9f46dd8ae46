#!/bin/sh
# End-to-end crash smoke of `privateclean collect`: start a collector,
# ship randomized reports, kill -9 the collector mid-stream, restart it in
# the same directory, re-ship everything, and require the final statistics
# to be byte-identical to an uninterrupted run. Run from the repository
# root (make collect-smoke).
set -eu

tmp=$(mktemp -d)
pid=""
cleanup() {
	[ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/pc" ./cmd/privateclean

# A tiny two-column dataset: discrete major, numeric score.
{
	echo "major,score"
	i=0
	while [ $i -lt 100 ]; do
		echo "Math,$((i % 5 + 1))"
		echo "History,$(((i + 2) % 5 + 1))"
		i=$((i + 1))
	done
} >"$tmp/data.csv"

# Derive the mechanism metadata (the private.csv itself is unused here —
# collection randomizes client-side via `pc report`).
"$tmp/pc" privatize -in "$tmp/data.csv" -out "$tmp/private.csv" \
	-meta "$tmp/meta.json" -p 0.2 -b 0.5 -seed 1

# start_collector <dir> <log>: bind port 0 and read the bound address from
# -addr-file (written atomically once the listener is up). -compact-every 0
# keeps folding deterministic: only startup replay and /v1/stats reads fold.
# The trace sink lives in the collection dir and is append-only, so spans
# accumulate across the kill -9 restart.
start_collector() {
	rm -f "$tmp/addr"
	"$tmp/pc" collect -dir "$1" -meta "$tmp/meta.json" \
		-addr 127.0.0.1:0 -addr-file "$tmp/addr" \
		-trace-out "$1-trace.jsonl" \
		-fsync always -compact-every 0 >"$2" 2>&1 &
	pid=$!
	addr=""
	for _ in $(seq 1 100); do
		[ -f "$tmp/addr" ] && addr=$(cat "$tmp/addr") && break
		kill -0 "$pid" 2>/dev/null || { echo "collect died:"; cat "$2"; exit 1; }
		sleep 0.1
	done
	[ -n "$addr" ] || { echo "collect never reported its address"; cat "$2"; exit 1; }
	base="http://$addr"
}

report() {
	"$tmp/pc" report -in "$tmp/data.csv" -meta "$tmp/meta.json" \
		-url "$base" -batch 10 -seed 7 -trace-out "$tmp/client-trace.jsonl"
}

# --- Baseline: uninterrupted run. ---
start_collector "$tmp/base" "$tmp/base.log"
report
curl -fs "$base/v1/stats" >"$tmp/stats-baseline.json"

# Freshness: every batch this run acked just folded on the /v1/stats read,
# so the ack-to-commit histogram has observations and statusz shows a fully
# drained pipeline.
metrics=$(curl -fs "$base/metrics")
fresh_total=$(echo "$metrics" | sed -n 's/^privateclean_collect_freshness_seconds_count //p')
[ "${fresh_total:-0}" -gt 0 ] || {
	echo "freshness histogram has no observations after baseline drain"; exit 1; }
statusz=$(curl -fs "$base/v1/statusz")
echo "$statusz" | grep -q '"sealed_backlog":0[,}]' || {
	echo "statusz reports unfolded backlog after drain:"; echo "$statusz"; exit 1; }
echo "$statusz" | grep -q '"seq_lag":0[,}]' || {
	echo "statusz reports sequence lag after drain:"; echo "$statusz"; exit 1; }
echo "$statusz" | grep -q '"freshness_count":0[,}]' && {
	echo "statusz freshness has no observations:"; echo "$statusz"; exit 1; }

kill -TERM "$pid"
wait "$pid" || { echo "baseline collector exited non-zero"; cat "$tmp/base.log"; exit 1; }
pid=""

# --- Crash run: kill -9 mid-stream, restart, re-ship. ---
start_collector "$tmp/crash" "$tmp/crash1.log"
report &
rpid=$!
sleep 0.05
kill -9 "$pid" # simulated machine death: no drain, no fsync beyond the WAL policy
wait "$pid" 2>/dev/null || true
pid=""
wait "$rpid" 2>/dev/null || true # the client may have seen the connection die

start_collector "$tmp/crash" "$tmp/crash2.log"
# Deterministic batch IDs make the full re-ship safe: batches the WAL
# already holds are deduplicated, lost ones land.
report
curl -fs "$base/v1/stats" >"$tmp/stats-crash.json"

cmp "$tmp/stats-baseline.json" "$tmp/stats-crash.json" || {
	echo "statistics diverged after crash recovery"
	diff "$tmp/stats-baseline.json" "$tmp/stats-crash.json" || true
	exit 1
}

# The recovered statistics answer queries like any `pc stats` artifact.
est=$("$tmp/pc" query -stats "$tmp/stats-crash.json" -meta "$tmp/meta.json" \
	"SELECT count(1) FROM R WHERE major = 'Math'")
echo "$est" | grep -q 'privateclean = ' || { echo "no estimate from recovered stats"; exit 1; }

metrics=$(curl -fs "$base/metrics")
# After a fully deduplicated re-ship only the duplicate counter is
# guaranteed; the request counter always is.
echo "$metrics" | grep -q 'privateclean_http_requests_total' || {
	echo "metrics missing request counter"; exit 1; }
echo "$metrics" | grep -qE 'privateclean_collect_(batches_accepted|duplicate_batches)_total' || {
	echo "metrics missing batch accounting"; exit 1; }
# /v1/statusz after the recovery fold: zero backlog again. (The re-ship may
# have been fully deduplicated, so freshness is only asserted on the
# baseline run above.)
statusz=$(curl -fs "$base/v1/statusz")
echo "$statusz" | grep -q '"sealed_backlog":0[,}]' || {
	echo "statusz reports unfolded backlog after recovery:"; echo "$statusz"; exit 1; }
tracez=$(curl -fs "$base/v1/tracez")

# Report values must never leak into any observability surface: metrics,
# statusz, tracez, or the durable trace sinks.
for surface in "$metrics" "$statusz" "$tracez"; do
	if echo "$surface" | grep -q 'Math'; then
		echo "observability surface leaks report values"; exit 1
	fi
done
if grep -q 'Math' "$tmp"/*trace.jsonl; then
	echo "trace sink leaks report values"; exit 1
fi

# CI sets SMOKE_TRACE_DIR to keep the trace JSONL past the tmp cleanup so
# the workflow can upload it as an artifact next to the benchmark JSON.
if [ -n "${SMOKE_TRACE_DIR:-}" ]; then
	mkdir -p "$SMOKE_TRACE_DIR"
	cp "$tmp"/*trace.jsonl "$SMOKE_TRACE_DIR"/
fi

kill -TERM "$pid"
wait "$pid" || { echo "collector exited non-zero on SIGTERM"; cat "$tmp/crash2.log"; exit 1; }
pid=""

echo "collect smoke OK"
