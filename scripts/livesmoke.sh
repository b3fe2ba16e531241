#!/usr/bin/env bash
# livesmoke.sh — loopback live-replay smoke: build mccached and mcload, boot
# the service on an ephemeral loopback port, replay the quick scenario
# against it, and verify the report artifacts landed, the report's query
# counts match what mcload printed, and it prints no row the replay does
# not measure. A second leg reruns
# the replay against the persistent file backend, restarts the service, and
# verifies the recovered store still holds the replay's sessions and cache
# state. CI runs this after the unit suites; run it locally as
# `scripts/livesmoke.sh [outdir]`.
set -euo pipefail
cd "$(dirname "$0")/.."

outdir="${1:-liveout}"
seed=7
workdir="$(mktemp -d)"
server_pid=""

cleanup() {
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill "$server_pid" 2>/dev/null || true
        wait "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/mccached" ./cmd/mccached
go build -o "$workdir/mcload" ./cmd/mcload

# boot BACKEND — start mccached on port 0 with the shared replay config
# and wait for the kernel-assigned address to land in -addr-file. The
# service flags must mirror the replay's config: same seed, objects,
# granularity (mcload -quick replays 400 objects under AC).
boot() {
    : > "$workdir/addr"
    "$workdir/mccached" -addr 127.0.0.1:0 -addr-file "$workdir/addr" \
        -seed "$seed" -objects 400 -granularity ac -backend "$1" &
    server_pid=$!
    for _ in $(seq 1 50); do
        [ -s "$workdir/addr" ] && break
        kill -0 "$server_pid" 2>/dev/null || { echo "livesmoke: mccached died" >&2; exit 1; }
        sleep 0.1
    done
    [ -s "$workdir/addr" ] || { echo "livesmoke: no bound address after 5s" >&2; exit 1; }
    addr="$(cat "$workdir/addr")"
}

# stop — drain the running service; a clean SIGTERM shutdown closes the
# store, so a persistent backend leaves no torn tail for the next boot.
stop() {
    kill -TERM "$server_pid"
    wait "$server_pid" || { echo "livesmoke: mccached exited dirty" >&2; exit 1; }
    server_pid=""
}

# ---- leg 1: in-memory backend, report artifacts -------------------------

boot memory
"$workdir/mcload" -url "http://$addr" -quick -seed "$seed" -speedup 1500 \
    -compare -report "$outdir" | tee "$workdir/mcload.out"

for f in manifest.json report.md; do
    [ -s "$outdir/$f" ] || { echo "livesmoke: missing $outdir/$f" >&2; exit 1; }
done
# The report's headline is rendered from LiveResult.Result(): its query
# counts must be the ones mcload printed from the replay's account.
printed="$(sed -nE 's/^queries +([0-9]+) \(local ([0-9]+), remote ([0-9]+)\)$/\1 \2 \3/p' "$workdir/mcload.out")"
reported="$(sed -nE 's/^\| queries issued \| ([0-9]+) \(([0-9]+) local, ([0-9]+) remote\) \|$/\1 \2 \3/p' "$outdir/report.md")"
[ -n "$printed" ] && [ "$printed" = "$reported" ] \
    || { echo "livesmoke: report.md queries '$reported', mcload printed '$printed'" >&2; exit 1; }
# A replay measures neither channel utilization nor the server buffer, so
# the report must not print them as zeros.
if grep -E '^\| (uplink / downlink utilization|server buffer hit ratio) \|' "$outdir/report.md"; then
    echo "livesmoke: report.md prints rows a live replay does not measure" >&2; exit 1
fi
grep -q '"live": true' "$outdir/manifest.json" \
    || { echo "livesmoke: manifest not flagged live" >&2; exit 1; }
stop

# ---- leg 2: file backend, replay, restart, verify warm state ------------

dsn="file:$workdir/cache.db?sync=group"
boot "$dsn"
"$workdir/mcload" -url "http://$addr" -quick -seed "$seed" -speedup 1500
before="$(curl -sf "http://$addr/v1/stats")"
stop

boot "$dsn"
after="$(curl -sf "http://$addr/v1/stats")"
stop

for snap in "$before" "$after"; do
    jq -e '.backend == "file" and .disk_bytes > 0' <<<"$snap" >/dev/null \
        || { echo "livesmoke: stats not reporting the file backend: $snap" >&2; exit 1; }
done
jq -e '.sessions > 0 and .cache_items > 0' <<<"$before" >/dev/null \
    || { echo "livesmoke: replay left no state to recover: $before" >&2; exit 1; }
for field in sessions cache_items cache_bytes; do
    b="$(jq ".$field" <<<"$before")"
    a="$(jq ".$field" <<<"$after")"
    [ "$b" = "$a" ] || { echo "livesmoke: $field not recovered: $b before restart, $a after" >&2; exit 1; }
done

echo "livesmoke: OK (report in $outdir; persistent restart recovered state)"
