#!/usr/bin/env bash
# benchguard.sh — CI gate against hot-path regressions.
#
# Three gate passes, each re-running a benchmark class and comparing every
# bench against the ns_per_op recorded in its committed baseline JSON:
#
#   kernel   the steady-state per-event benchmarks (KernelStateMachine*:
#            the tight hold loop, resource contention, and the
#            spawn/finish path)            vs BENCH_kernel.json
#   model    the per-access model path: a touch and a full eviction cycle
#            of the indexed lru and ewma-0.5 policies, the item index
#            under them (with the Go-map baselines it is read against),
#            a reply installed into a full cache and into a full
#            hierarchy (cache and memory buffer), and the LRU buffer
#                                          vs BENCH_model.json
#   storage  the persistence engine (point reads, group-committed
#            inserts serial and 8-way, a four-record commit unit,
#            cold-start recovery)          vs BENCH_storage.json
#
# Each pass runs every bench three times (go -count 3) and holds its
# fastest ns/op to the baseline: one noisy run cannot fail the gate, and a
# real regression is still there at its best. A bench whose best run is
# more than REGRESSION_FACTOR (default 2.0) times slower than its committed
# baseline fails the build.
#
# The factor is deliberately loose: CI machines differ from the machine
# that recorded the baseline, the kernel benches are single-digit
# microseconds, and the storage benches are fsync-bound (disk-speed
# sensitive). The gate exists to catch accidental O(n) work or
# allocation on the per-event path — 10x-class regressions — not 20%
# drift. Benches without a committed baseline are reported and skipped,
# so adding a benchmark does not require updating the JSON in the same
# commit; a missing baseline file skips its whole pass the same way.
#
# Environment knobs:
#   REGRESSION_FACTOR  failure threshold vs baseline   (default 2.0)
#   BENCH_TIME         go -benchtime for the kernel pass  (default 200x)
#   BENCH_MODEL_TIME   go -benchtime for the model pass   (default 20000x)
#   BENCH_STORAGE_TIME go -benchtime for the storage pass (default 100x)
set -euo pipefail
cd "$(dirname "$0")/.."

FACTOR="${REGRESSION_FACTOR:-2.0}"
BENCH_TIME="${BENCH_TIME:-200x}"
BENCH_MODEL_TIME="${BENCH_MODEL_TIME:-20000x}"
BENCH_STORAGE_TIME="${BENCH_STORAGE_TIME:-100x}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# guard BASELINE BENCHTIME PKG REGEX [PKG REGEX]... — one gate pass: re-run
# the benches matching each REGEX in its PKG three times and hold each
# one's fastest run to FACTOR times its entry in BASELINE. (A pattern with more /-elements than a benchmark's
# name has levels does not report that benchmark, so benches of different
# depth need a pattern each.)
guard() {
    local baseline="$1" benchtime="$2"
    shift 2
    if [ ! -f "$baseline" ]; then
        echo "benchguard: $baseline missing; run scripts/bench.sh first (pass skipped)" >&2
        return 0
    fi
    : > "$raw"
    while [ $# -gt 0 ]; do
        go test -run '^$' -bench "$2" -benchtime "$benchtime" -count 3 "$1" | tee -a "$raw"
        shift 2
    done

    awk -v factor="$FACTOR" -v baseline="$baseline" '
    # Pass 1: committed baselines — lines like {"name": "KernelStateMachineHoldLoop", ..., "ns_per_op": 32.9, ...}
    FILENAME == baseline && /"name"/ {
        name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
        ns = $0;   sub(/.*"ns_per_op": /, "", ns); sub(/[,}].*/, "", ns)
        base[name] = ns + 0
        next
    }
    # Pass 2: fresh runs — "BenchmarkKernelStateMachineHoldLoop-8   200   33.1 ns/op ..."
    # The fastest run of each bench is kept, in first-seen order.
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        sub(/^Benchmark/, "", name)
        fresh = $3 + 0
        if (!(name in best)) { order[++checked] = name; best[name] = fresh }
        else if (fresh < best[name]) best[name] = fresh
    }
    END {
        for (i = 1; i <= checked; i++) {
            name = order[i]
            if (!(name in base)) {
                printf("benchguard: %-45s %12.1f ns/op  (no baseline, skipped)\n", name, best[name])
                continue
            }
            ratio = base[name] > 0 ? best[name] / base[name] : 0
            verdict = ratio > factor ? "FAIL" : "ok"
            printf("benchguard: %-45s %12.1f ns/op  baseline %12.1f  ratio %.2fx  %s\n",
                   name, best[name], base[name], ratio, verdict)
            if (ratio > factor) failures++
        }
        if (checked == 0) { print "benchguard: no benchmarks ran" > "/dev/stderr"; exit 1 }
        if (failures > 0) {
            printf("benchguard: %d benchmark(s) regressed beyond %.1fx of %s\n",
                   failures, factor, baseline) > "/dev/stderr"
            exit 1
        }
        printf("benchguard: %d benchmark(s) within %.1fx of committed baselines\n", checked, factor)
    }' "$baseline" "$raw"
}

guard BENCH_kernel.json "$BENCH_TIME" \
    ./internal/sim '^BenchmarkKernelStateMachine(HoldLoop|ResourceContention|ManyMachines)$'
guard BENCH_model.json "$BENCH_MODEL_TIME" \
    ./internal/replacement '^BenchmarkModelAccess$/^(lru|ewma-0.5)$/^opt$' \
    ./internal/replacement '^BenchmarkModelEvictionHeavy$/^(lru|ewma-0.5)$//^opt$' \
    ./internal/oodb '^BenchmarkItemIndexChurn$' \
    ./internal/core '^Benchmark(CacheInsertBatch|HierarchyCommit)$' \
    ./internal/buffer '^BenchmarkLRUPutGet$'
guard BENCH_storage.json "$BENCH_STORAGE_TIME" \
    ./internal/storage '^BenchmarkStorage(Get|Insert|Apply|Recover)$'
