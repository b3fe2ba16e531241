GO ?= go

.PHONY: build vet test race lintdocs deadcode benchharness verify fuzz goldens goldens-full examples loc bench benchguard pairs clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The parallel runner (sweep configs and fleet cells fan out over a worker
# pool, each on its own single-threaded kernel, client machines and
# federation mirror), the live serving layer (concurrent HTTP handlers over
# shared sessions), and the storage engine (group-commit leaders and the
# background compactor against concurrent readers) are the places
# concurrency lives; keep them race-clean. The client cache core is here
# too: a cell's hierarchies share one install scratch (core.Scratch), which
# is safe only within one goroutine and must never cross to another.
race:
	$(GO) test -race ./internal/core ./internal/experiment ./internal/sim ./internal/client ./internal/federation ./internal/serve ./internal/storage

# Docs gate: every package must carry a package comment.
lintdocs:
	scripts/lintdocs.sh

# Ship only what a binary runs: list every package-level identifier under
# internal/ + cmd/ with no use outside its own package's _test.go files
# (uses from bench/, examples/, cmd/ and other packages' tests count) and
# fail if there is one. Such an identifier moves into a _test.go file when
# it is a reference oracle the tests compare against, and goes otherwise.
deadcode:
	$(GO) run ./scripts/deadcode

# The benchmark harness is its own module (bench/go.mod), so ./... does not
# see it; it compiles against internal/*, so an API deletion must not break
# it.
benchharness:
	$(GO) -C bench vet .
	$(GO) -C bench test .

# Tier-1 verify: what every PR must keep green.
verify: build vet test race lintdocs deadcode benchharness

# Run every Fuzz* target under internal/ and cmd/ for FUZZTIME each (the
# replacement spec parser and differential trace, the item index, the trace
# reader, and the serving layer's reply encoders and request bodies). A
# failure leaves its input under the package's testdata/fuzz/.
FUZZTIME ?= 10s
fuzz:
	for f in $$(grep -rlE --include='*_test.go' '^func Fuzz' internal cmd); do \
		for t in $$(grep -oE '^func Fuzz[A-Za-z0-9_]+' $$f | cut -d' ' -f2); do \
			echo "fuzz $$(dirname $$f) $$t"; \
			$(GO) test ./$$(dirname $$f) -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
		done; \
	done

# Replay the committed Experiment 1-11 quick manifests (recorded on the
# retired goroutine engine) and check every archived table hash still
# reproduces (~3 min).
goldens:
	for m in internal/experiment/testdata/manifests/*.json; do \
		$(GO) run ./cmd/mcsim run -config $$m > /dev/null || exit 1; \
		echo "ok $$m"; \
	done

# Regenerate the full-scale record (Table 1 and Experiments 1-6 at paper
# scale, ~8 min on 2 CPUs) and diff it against experiments_full.txt,
# ignoring only the timing lines; not in CI. scripts/goldens_full.sh -update
# re-records it.
goldens-full:
	scripts/goldens_full.sh

# Build and run every program under examples/ (~25 s); each must exit 0
# and print exactly its recorded examples/<name>/output.txt.
examples:
	out=$$(mktemp) && trap 'rm -f $$out' EXIT && \
	for d in examples/*/; do \
		$(GO) run ./$$d > $$out || exit 1; \
		diff -u $${d}output.txt $$out || exit 1; \
		echo "ok $$d"; \
	done

# The figure each CHANGES.md line states: non-test Go lines under internal/
# + cmd/ per package, and the added/removed total against BASE (default
# HEAD).
loc:
	scripts/loc.sh $(BASE)

# Kernel micro-benchmarks + the parallel sweep benchmark + the model suite
# (replacement policies, item index, cache, LRU buffer) + the fleet engine
# + the storage engine, with allocation
# counts; machine-readable results land in BENCH_kernel.json,
# BENCH_model.json, BENCH_fleet.json and BENCH_storage.json. Tune with
# BENCH_TIME / BENCH_MODEL_TIME / BENCH_FLEET_TIME / BENCH_STORAGE_TIME
# (go -benchtime) and BENCH_COUNT.
bench:
	scripts/bench.sh

# Regression gate: re-run the KernelStateMachine* per-event benchmarks,
# the per-access model benchmarks (a touch and an eviction cycle of the
# lru and ewma-0.5 policies, the item index) and the storage-engine
# benchmarks three times each, failing if any one's fastest run is >2x
# slower than its entry in the committed BENCH_kernel.json /
# BENCH_model.json / BENCH_storage.json (REGRESSION_FACTOR overrides the
# threshold).
benchguard:
	scripts/benchguard.sh

# Alternating benchmark pairs, commit BASE against the working tree, on one
# workload: every pair's end-to-end metrics, their ratios, the median ratio
# and the win count; exits 1 on a failed or incorrect run. For example
#   make pairs WORKLOAD=sim_paper BASE=HEAD~1 PAIRS_FLAGS='-n 4 -seconds 15'
pairs:
	scripts/pairs.sh $(PAIRS_FLAGS) $(WORKLOAD) $(BASE)

clean:
	rm -f BENCH_kernel.json BENCH_model.json BENCH_fleet.json BENCH_storage.json
