#!/usr/bin/env bash
# bench.sh — run the performance-engine benchmarks and record the results.
#
# Two suites, each with its own machine-readable summary at the repo root:
#
#   kernel  ns/event and allocs/event of the discrete-event core, the
#           channel fault model's per-frame cost, plus the parallel sweep
#           benchmark (wall-clock of a 16-config evaluation slice at pool
#           sizes 1/2/4/8)                        -> BENCH_kernel.json
#   model   the per-access model path: ns/access, ns/victim and the full
#           eviction cycle for every indexed policy against its retained
#           scanCore reference twin, plus the structures under it — the
#           item index against the Go maps it replaced, a reply installed
#           into a full cache and into a full hierarchy, the LRU buffer
#                                                  -> BENCH_model.json
#   fleet   the multi-cell fleet engine: wall-clock and Mevents/s of a
#           100-client run at 1/2/4/8 cells plus the relay-cache point
#           (cells scale across the worker pool), and the 1000-client
#           scaling point                          -> BENCH_fleet.json
#   storage the log-structured persistence engine: point reads against a
#           100K-record store, group-committed durable inserts from one
#           writer and from eight, a four-record commit unit, and
#           cold-start log replay (the ROADMAP's file-backed regime:
#           insert < 20ms, get < 4ms)              -> BENCH_storage.json
#
# Environment knobs:
#   BENCH_TIME          go -benchtime for the kernel benches   (default 200x)
#   BENCH_MODEL_TIME    go -benchtime for the model benches    (default 20000x)
#   BENCH_FLEET_TIME    go -benchtime for the fleet benches    (default 1x)
#   BENCH_STORAGE_TIME  go -benchtime for the storage benches  (default 100x)
#   BENCH_COUNT         go -count repetitions of the kernel, fleet and
#                       storage suites (default 1; the model suite, whose
#                       rows benchguard gates, always runs five times)
#   SKIP_SWEEP        non-empty skips the (slow) full-sweep benchmark
#   SKIP_MODEL        non-empty skips the model suite
#   SKIP_FLEET        non-empty skips the fleet suite
#   SKIP_STORAGE      non-empty skips the storage suite
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_TIME="${BENCH_TIME:-200x}"
BENCH_MODEL_TIME="${BENCH_MODEL_TIME:-20000x}"
BENCH_FLEET_TIME="${BENCH_FLEET_TIME:-1x}"
BENCH_STORAGE_TIME="${BENCH_STORAGE_TIME:-100x}"
BENCH_COUNT="${BENCH_COUNT:-1}"

# One stamp for every file this run writes: the revision the working tree
# was built from, "-dirty" when it had uncommitted changes.
GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    GIT_REV="$GIT_REV-dirty"
fi

# emit_json RAW OUT — distill `go test -bench` output into a JSON summary.
# A benchmark run several times (go -count) is recorded once, in first-seen
# order, at the run with the median ns/op (the lower middle one of an even
# count): one outlier run neither loosens benchguard's gate (a slow one)
# nor makes it fail later runs (a fast one).
emit_json() {
    awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v rev="$GIT_REV" '
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)       # strip the -GOMAXPROCS suffix
    sub(/^Benchmark/, "", name)
    entry = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, $3)
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op")      entry = entry sprintf(", \"bytes_per_op\": %s", $(i - 1))
        if ($i == "allocs/op") entry = entry sprintf(", \"allocs_per_op\": %s", $(i - 1))
    }
    entry = entry "}"
    if (!(name in runs)) order[++n] = name
    k = ++runs[name]
    ns[name, k] = $3 + 0
    entries[name, k] = entry
}
END {
    printf("{\n  \"date\": \"%s\",\n  \"git_revision\": \"%s\",\n  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\",\n  \"benchmarks\": [\n", date, rev, goos, goarch, cpu)
    for (i = 1; i <= n; i++) {
        name = order[i]
        # The median run: the one with as many runs below it as the middle
        # rank asks (ties broken by run order).
        want = int((runs[name] - 1) / 2)
        for (a = 1; a <= runs[name]; a++) {
            below = 0
            for (b = 1; b <= runs[name]; b++)
                if (ns[name, b] < ns[name, a] || (ns[name, b] == ns[name, a] && b < a)) below++
            if (below == want) pick = a
        }
        printf("%s%s\n", entries[name, pick], i < n ? "," : "")
    }
    printf("  ]\n}\n")
}' "$1" > "$2"
    echo "wrote $2 ($(grep -c '"name"' "$2") benchmarks)"
}

raw="$(mktemp)"
sweep="$(mktemp)"
trap 'rm -f "$raw" "$sweep"' EXIT

# The full-sweep benchmark (a 16-config evaluation slice on the parallel
# runner) runs once and lands in both summaries: it is the kernel suite's
# wall-clock anchor and the model suite's end-to-end proof that hot-path
# wins survive composition into whole simulations.
if [ -z "${SKIP_SWEEP:-}" ]; then
    go test -run '^$' -bench 'FullSweep' -benchmem -benchtime 1x . | tee "$sweep"
fi

go test -run '^$' -bench 'Kernel' -benchmem \
    -benchtime "$BENCH_TIME" -count "$BENCH_COUNT" ./internal/sim | tee "$raw"
# The fault model sits on the per-frame hot path of every faulted
# transmission; track its cost next to the kernel numbers.
go test -run '^$' -bench 'FaultTransmit' -benchmem \
    -count "$BENCH_COUNT" ./internal/network | tee -a "$raw"
cat "$sweep" >> "$raw"
emit_json "$raw" BENCH_kernel.json

if [ -z "${SKIP_MODEL:-}" ]; then
    go test -run '^$' -bench 'Model|ItemIndexChurn|CacheInsertBatch|HierarchyCommit|LRUPutGet' -benchmem \
        -benchtime "$BENCH_MODEL_TIME" -count 5 \
        ./internal/replacement ./internal/oodb ./internal/core ./internal/buffer | tee "$raw"
    cat "$sweep" >> "$raw"
    emit_json "$raw" BENCH_model.json
fi

if [ -z "${SKIP_FLEET:-}" ]; then
    go test -run '^$' -bench '^BenchmarkFleet' -benchmem \
        -benchtime "$BENCH_FLEET_TIME" -count "$BENCH_COUNT" . | tee "$raw"
    emit_json "$raw" BENCH_fleet.json
fi

# The storage suite measures real disk I/O (group-committed inserts are
# fsync-bound), so its numbers are the most machine-sensitive of the
# four; benchguard holds them to the same loose regression factor.
if [ -z "${SKIP_STORAGE:-}" ]; then
    go test -run '^$' -bench '^BenchmarkStorage(Get|Insert|Apply|Recover)$' -benchmem \
        -benchtime "$BENCH_STORAGE_TIME" -count "$BENCH_COUNT" \
        ./internal/storage | tee "$raw"
    emit_json "$raw" BENCH_storage.json
fi
