package experiment

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/oodb"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestScenarioDefaults(t *testing.T) {
	sc, err := New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.Config()
	if cfg.NumClients != 10 || cfg.Days != 4 || cfg.Policy != "ewma-0.5" ||
		cfg.NumObjects != 2000 || cfg.StorageObjects != 400 || cfg.ServerBufferObjects() != 500 {
		t.Fatalf("scenario defaults diverge from Table 1: %+v", cfg)
	}
}

// TestParseEnumSpellings: each enum parses its own String form in any
// letter case — the CLI spellings included — and rejects anything else.
func TestParseEnumSpellings(t *testing.T) {
	for _, h := range []HeatKind{SkewedHeat, ChangingSkewedHeat, CyclicHeat} {
		for _, s := range []string{h.String(), strings.ToLower(h.String())} {
			if got, err := ParseHeat(s); err != nil || got != h {
				t.Errorf("ParseHeat(%q) = %v, %v; want %v", s, got, err, h)
			}
		}
	}
	for _, a := range []ArrivalKind{PoissonArrival, BurstyArrival} {
		for _, s := range []string{a.String(), strings.ToLower(a.String())} {
			if got, err := ParseArrival(s); err != nil || got != a {
				t.Errorf("ParseArrival(%q) = %v, %v; want %v", s, got, err, a)
			}
		}
	}
	for _, k := range []workload.Kind{workload.Associative, workload.Navigational} {
		for _, s := range []string{k.String(), strings.ToLower(k.String())} {
			if got, err := workload.ParseKind(s); err != nil || got != k {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", s, got, err, k)
			}
		}
	}
	if _, err := ParseHeat("warm"); err == nil {
		t.Error("ParseHeat accepted warm")
	}
	if _, err := ParseArrival("uniform"); err == nil {
		t.Error("ParseArrival accepted uniform")
	}
	if _, err := workload.ParseKind("XQ"); err == nil {
		t.Error("ParseKind accepted XQ")
	}
}

// TestScenarioCoherenceNames: WithCoherence accepts strategy names as well
// as enum values, the broadcast-IR strategy composes with fleets, and the
// retired "ir" spelling is refused.
func TestScenarioCoherenceNames(t *testing.T) {
	sc, err := New(
		WithCoherence("irb"),
		WithFleet(100, 4),
		WithCooperative(3),
		WithGranularity(core.HybridCaching),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.Config()
	if cfg.Coherence != coherence.IRBroadcastStrategy || cfg.CoopPeers != 3 {
		t.Fatalf("named coherence options not applied: %+v", cfg)
	}
	for name, want := range map[string]coherence.Strategy{
		"lease": coherence.LeaseStrategy,
		"fixed": coherence.FixedLeaseStrategy,
		"irb":   coherence.IRBroadcastStrategy,
	} {
		sc, err := New(WithCoherence(name))
		if err != nil {
			t.Fatalf("WithCoherence(%q): %v", name, err)
		}
		if got := sc.Config().Coherence; got != want {
			t.Fatalf("WithCoherence(%q) = %v, want %v", name, got, want)
		}
	}
	if _, err := New(WithCoherence("ir")); err == nil {
		t.Fatal(`WithCoherence("ir") accepted the retired scheme`)
	}
}

// TestScenarioOptionsApply pins the option shim bench/ compiles against:
// each kept option sets exactly its Config field(s), so New(opts).Config()
// is Defaults of the literal with the same fields set.
func TestScenarioOptionsApply(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want Config
	}{
		{"WithSeed", []Option{WithSeed(7)}, Config{Seed: 7}},
		{"WithHorizonDays", []Option{WithHorizonDays(0.5)}, Config{Days: 0.5}},
		{"WithObjects", []Option{WithObjects(800)}, Config{NumObjects: 800}},
		{"WithClients", []Option{WithClients(50)}, Config{NumClients: 50}},
		{"WithFleet", []Option{WithFleet(100, 4)}, Config{NumClients: 100, Cells: 4}},
		{"WithGranularity", []Option{WithGranularity(core.AttributeCaching)}, Config{Granularity: core.AttributeCaching}},
		{"WithPolicy", []Option{WithPolicy("lru-3")}, Config{Policy: "lru-3"}},
		{"WithClientCache", []Option{WithClientCache(100, 10)}, Config{StorageObjects: 100, MemBufferObjects: 10}},
		{"WithQueryKind", []Option{WithQueryKind(workload.Navigational)}, Config{QueryKind: workload.Navigational}},
		{"WithUpdateProb", []Option{WithUpdateProb(0.3)}, Config{UpdateProb: 0.3}},
		{"WithCoherence enum", []Option{WithCoherence(coherence.IRBroadcastStrategy)}, Config{Coherence: coherence.IRBroadcastStrategy}},
		{"WithCoherence name", []Option{WithCoherence("fixed")}, Config{Coherence: coherence.FixedLeaseStrategy}},
		// Cooperation needs caching clients, and the default is NC.
		{"WithCooperative", []Option{WithCooperative(3), WithGranularity(core.HybridCaching)},
			Config{CoopPeers: 3, Granularity: core.HybridCaching}},
		{"WithLoss", []Option{WithLoss(0.1)}, Config{LossRate: 0.1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc, err := New(c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sc.Config(), Defaults(c.want); !reflect.DeepEqual(got, want) {
				t.Fatalf("got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestScenarioValidationErrors pins the named-error contract: every
// rejected Config, and the one error the option shim adds (a coherence
// name that does not parse), wraps exactly the sentinel a caller would
// branch on with errors.Is.
func TestScenarioValidationErrors(t *testing.T) {
	_, gossip := New(WithCoherence("gossip"))
	cases := []struct {
		name string
		err  error
		want error
	}{
		{"unknown granularity", Config{Granularity: core.Granularity(99)}.Validate(), ErrOutOfRange},
		{"unknown coherence name", gossip, ErrOutOfRange},
		{"config negative ir window", Config{IRWindow: -1}.Validate(), ErrOutOfRange},
		{"ir window under report interval",
			Config{Coherence: coherence.IRBroadcastStrategy, IRWindow: 30}.Validate(), ErrConflict},
		{"cooperation without caching", Config{Granularity: core.NoCache, CoopPeers: 3}.Validate(), ErrConflict},
		{"more cells than clients", Config{NumClients: 4, Cells: 8}.Validate(), ErrConflict},
		{"cells exceed default fleet", Config{Cells: 64}.Validate(), ErrConflict},
		{"broadcast without shared pool", Config{BroadcastAttrs: 2}.Validate(), ErrConflict},
		{"retired ir coherence", Config{Coherence: 1}.Validate(), ErrBadSpec},
		{"disconnect more than fleet", Config{DisconnectedClients: 20, DisconnectHours: 1}.Validate(), ErrConflict},

		{"config update prob", Config{UpdateProb: 1.5}.Validate(), ErrOutOfRange},
		{"config negative days", Config{Days: -1}.Validate(), ErrOutOfRange},
		{"config NaN days", Config{Days: math.NaN()}.Validate(), ErrOutOfRange},
		{"config negative warmup", Config{WarmupDays: -1}.Validate(), ErrOutOfRange},
		{"config loss rate", Config{LossRate: 2}.Validate(), ErrOutOfRange},
		{"config corrupt rate", Config{CorruptRate: -0.1}.Validate(), ErrOutOfRange},
		{"config burst fraction", Config{BurstFraction: 1}.Validate(), ErrOutOfRange},
		{"config burst length", Config{MeanBadSeconds: -1}.Validate(), ErrOutOfRange},
		{"config retry backoff", Config{RetryBackoff: -1}.Validate(), ErrOutOfRange},
		{"config share prob", Config{SharedHotObjects: 10, SharedHotProb: 3}.Validate(), ErrOutOfRange},
		{"config one object", Config{NumObjects: 1}.Validate(), ErrOutOfRange},
		{"config negative objects", Config{NumObjects: -5}.Validate(), ErrOutOfRange},
		// LRU-k numbers every item it has seen in an oodb.ItemIndex.
		{"config objects past the index", Config{NumObjects: oodb.MaxIndexedObjects + 1, Policy: "lru-2"}.Validate(), ErrOutOfRange},
		{"config objects under selectivity", Config{NumObjects: 5}.Validate(), ErrConflict},
		{"config negative clients", Config{NumClients: -3}.Validate(), ErrOutOfRange},
		{"config disconnect hours", Config{DisconnectedClients: 2, DisconnectHours: 30}.Validate(), ErrOutOfRange},
		{"config negative disconnected", Config{DisconnectedClients: -1}.Validate(), ErrOutOfRange},
		{"config csh change rate", Config{Heat: ChangingSkewedHeat, CSHChangeEvery: -5}.Validate(), ErrOutOfRange},
		{"config cyclic loop too small", Config{Heat: CyclicHeat, NumObjects: 40}.Validate(), ErrConflict},
		{"config negative cells", Config{Cells: -2}.Validate(), ErrOutOfRange},
		{"config negative relay", Config{RelayObjects: -5}.Validate(), ErrOutOfRange},
		{"config negative coop", Config{CoopPeers: -2}.Validate(), ErrOutOfRange},
		{"config negative shed", Config{ShedThreshold: -1}.Validate(), ErrOutOfRange},
		{"config buffer ratio", Config{ServerBufferRatio: 7}.Validate(), ErrOutOfRange},
		{"config attrs per object", Config{AttrsPerObj: 10}.Validate(), ErrOutOfRange},
		{"config unknown heat", Config{Heat: HeatKind(42)}.Validate(), ErrOutOfRange},
		{"config unknown arrival", Config{Arrival: ArrivalKind(7)}.Validate(), ErrOutOfRange},
		{"config unknown granularity", Config{Granularity: core.Granularity(-1)}.Validate(), ErrOutOfRange},
		{"config unknown query kind", Config{QueryKind: workload.Kind(5)}.Validate(), ErrOutOfRange},
		{"config unknown coherence", Config{Coherence: coherence.Strategy(9)}.Validate(), ErrOutOfRange},
		{"config negative client storage", Config{StorageObjects: -1}.Validate(), ErrOutOfRange},
		{"config negative client buffer", Config{MemBufferObjects: -1}.Validate(), ErrOutOfRange},
		{"config negative server buffer", Config{ServerBufferRatio: -0.25}.Validate(), ErrOutOfRange},
		{"config backbone bandwidth", Config{BackboneBandwidthBps: -1}.Validate(), ErrOutOfRange},
		{"config backbone latency", Config{BackboneLatency: -0.01}.Validate(), ErrOutOfRange},
		{"config negative fixed lease", Config{FixedLease: -60}.Validate(), ErrOutOfRange},
		{"config fixed lease under adaptive leases", Config{FixedLease: 60}.Validate(), ErrConflict},
		{"config broadcast attrs", Config{SharedHotObjects: 10, BroadcastAttrs: 12}.Validate(), ErrOutOfRange},
		{"config shared pool is the database", Config{NumObjects: 100, SharedHotObjects: 100}.Validate(), ErrConflict},
		{"config pool under a query at share prob 1", Config{SharedHotObjects: 10, SharedHotProb: 1}.Validate(), ErrConflict},
		{"config bad policy", Config{Policy: "no-such-policy"}.Validate(), ErrBadSpec},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.err == nil {
				t.Fatal("invalid scenario accepted")
			}
			if !errors.Is(c.err, c.want) {
				t.Fatalf("error %v does not wrap %v", c.err, c.want)
			}
		})
	}

	// Negative beta is a paper value (Figure 7 sweeps -1, 0, 1), not an
	// error; and a defaulted Config — what every Exp* sweep hands to Run —
	// validates as it stands.
	if err := (Config{Beta: -1}).Validate(); err != nil {
		t.Fatalf("Beta -1 rejected: %v", err)
	}
	if err := Defaults(Config{}).Validate(); err != nil {
		t.Fatalf("defaulted Config rejected: %v", err)
	}
}

// TestRunPanicsOnInvalidConfig: a programmatic caller who skipped Validate
// gets its error as the panic, before anything is built.
func TestRunPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "UpdateProb 1.5") {
			t.Fatalf("panic %q does not carry the Validate error", msg)
		}
	}()
	Run(Config{UpdateProb: 1.5})
}

// TestScenarioRunMatchesConfigRun: the Scenario front door adds nothing but
// option assembly — a scenario's Result is byte-identical to Run on the
// Config it assembled.
func TestScenarioRunMatchesConfigRun(t *testing.T) {
	sc, err := New(
		WithSeed(1),
		WithObjects(400),
		WithClients(4),
		WithHorizonDays(0.05),
		WithGranularity(core.HybridCaching),
		WithUpdateProb(0.1),
	)
	if err != nil {
		t.Fatal(err)
	}
	got := sc.Run()
	want := Run(Config{
		Seed: 1, NumObjects: 400, NumClients: 4, Days: 0.05,
		Granularity: core.HybridCaching, UpdateProb: 0.1,
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scenario run diverged from Run:\n%+v\nvs\n%+v", got, want)
	}
}

// TestValidatedConfigsRun is the other half of the Validate contract: a
// Config it accepts builds and runs without reaching a constructor
// assertion (or, as SharedHotProb = 1 over a pool smaller than a query once
// did, never finishing). Values are drawn around every bound Validate
// mirrors; most draws are rejected, the rest must run and keep the
// accounting identities (checkAccounting).
func TestValidatedConfigsRun(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pick := func(xs ...int) int { return xs[r.Intn(len(xs))] }
	pickF := func(xs ...float64) float64 { return xs[r.Intn(len(xs))] }
	ran := 0
	for i := 0; i < 1000; i++ {
		cfg := drawConfig(uint64(i), pick, pickF)
		if cfg.Validate() != nil {
			continue
		}
		ran++
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("validated config panicked: %v\n%+v", rec, cfg)
				}
			}()
			checkAccounting(t, cfg)
		}()
	}
	t.Logf("%d of the drawn configs validated and ran", ran)
	if ran < 100 {
		t.Fatalf("only %d of the drawn configs validated; the draw no longer probes Run", ran)
	}
}

// drawConfig draws a Config around every bound Validate mirrors.
func drawConfig(seed uint64, pick func(...int) int, pickF func(...float64) float64) Config {
	return Config{
		Seed: seed, Days: pickF(0.002, 0.01),
		NumObjects: pick(0, 2, 19, 20, 21, 40, 66, 67, 100), NumClients: pick(0, 1, 2, 5),
		Granularity:    core.Granularity(pick(0, 1, 2, 3)),
		StorageObjects: pick(0, 0, 1, 3), MemBufferObjects: pick(0, 0, 1),
		ServerBufferRatio: pickF(0, 0, 0.01, 1),
		QueryKind:         workload.Kind(pick(0, 1)), Heat: HeatKind(pick(0, 1, 2)),
		CSHChangeEvery: pick(0, 1, 5), Arrival: ArrivalKind(pick(0, 1)),
		AttrsPerObj: pick(0, 1, 9), AttrSkewTheta: pickF(0, 0.5),
		UpdateProb: pickF(0, 0.5, 1), Beta: pickF(-1, 0, 1), ShedThreshold: pickF(0, 0.5),
		PrefetchKappa: pickF(0, -2, 2),
		Coherence:     coherence.Strategy(pick(0, 1, 2, 3)),
		FixedLease:    pickF(0, 0, 5), IRWindow: pickF(0, 10, 100),
		CoopPeers: pick(0, 0, 2), SharedHotObjects: pick(0, 0, 1, 3, 20),
		SharedHotProb: pickF(0, 0.5, 1), BroadcastAttrs: pick(0, 0, 1, 9),
		DisconnectedClients: pick(0, 0, 1, 2), DisconnectHours: pickF(0, 1, 24),
		LossRate: pickF(0, 0, 0.2, 1), CorruptRate: pickF(0, 0, 0.1),
		BurstFraction: pickF(0, 0, 0.5),
		RetryMax:      pick(0, -1, 2), Cells: pick(0, 1, 2, 3), RelayObjects: pick(0, 5),
	}
}

// FuzzRun draws a small Config (at most 3 clients over at most 0.005 days,
// half the time with a warm-up) from the fuzzer's bytes and, when Validate
// accepts it, requires the run to keep the accounting identities.
func FuzzRun(f *testing.F) {
	f.Add([]byte{})
	// Valid warm-up draws: a lossy channel with disconnections, a
	// disconnected fleet, broadcast in a fleet, cooperative caching.
	f.Add([]byte{5, 3, 5, 0, 5, 0, 1, 3, 1, 2, 0, 3, 1, 0, 1, 2, 4, 0, 4, 4, 0, 1, 4, 2, 3, 3, 3, 2, 2, 4, 2, 5, 4, 2, 3, 3})
	f.Add([]byte{0, 3, 0, 0, 3, 1, 2, 3, 0, 1, 2, 2, 2, 2, 3, 1, 2, 0, 4, 0, 0, 0, 1, 2, 0, 3, 1, 0, 5, 0, 1, 2, 5, 2, 2, 1})
	f.Add([]byte{3, 3, 5, 0, 1, 1, 3, 1, 4, 3, 2, 4, 5, 3, 4, 4, 0, 5, 2, 3, 0, 1, 4, 4, 3, 4, 3, 1, 4, 3, 1, 2, 4, 5, 2, 5})
	f.Add([]byte{3, 0, 0, 2, 3, 3, 2, 3, 5, 2, 2, 3, 2, 5, 1, 0, 1, 4, 0, 0, 2, 5, 0, 5, 0, 2, 0, 0, 1, 1, 5, 1, 2, 1, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		pick := func(xs ...int) int { return xs[next(len(xs))] }
		pickF := func(xs ...float64) float64 { return xs[next(len(xs))] }
		cfg := drawConfig(uint64(next(256)), pick, pickF)
		cfg.NumClients = 1 + next(3)
		cfg.Days = pickF(0.002, 0.005)
		cfg.WarmupDays = pickF(0, 0.001)
		if cfg.Validate() != nil {
			return
		}
		checkAccounting(t, cfg)
	})
}

// TestNoUpdatesNoErrors is the oracle's first metamorphic property: with
// no updates no copy can go out of date, so a run on any config Validate
// accepts — lossy channels, disconnections, broadcast, peers, fleets —
// serves no read in error.
func TestNoUpdatesNoErrors(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pick := func(xs ...int) int { return xs[r.Intn(len(xs))] }
	pickF := func(xs ...float64) float64 { return xs[r.Intn(len(xs))] }
	ran := 0
	for i := 0; i < 3000; i++ {
		cfg := drawConfig(uint64(i), pick, pickF)
		cfg.UpdateProb = 0
		cfg.Days = pickF(0.02, 0.05)
		if cfg.Validate() != nil {
			continue
		}
		ran++
		if res := Run(cfg); res.ErrorRate != 0 || res.Account.Errors != 0 {
			t.Fatalf("no updates, yet %d errors (error rate %v)\n%+v", res.Account.Errors, res.ErrorRate, cfg)
		}
	}
	t.Logf("%d of the drawn configs validated and ran", ran)
	if ran < 100 {
		t.Fatalf("only %d of the drawn configs validated; the draw no longer probes Run", ran)
	}
}

// TestWarmupGatesEnergyByEventTime: radio energy is counted on the
// account's one warm-up window, by the time it is spent, so energy per
// query divides post-warm-up joules by post-warm-up queries. As the warm-up
// grows the cache is warmer over what is measured, so the figure must not
// rise; charging the whole run's energy to the measured queries made it
// double by a half-day warm-up.
func TestWarmupGatesEnergyByEventTime(t *testing.T) {
	if testing.Short() {
		t.Skip("three one-day runs")
	}
	prev := math.Inf(1)
	for _, warmup := range []float64{0, 0.25, 0.5} {
		res := Run(Config{Seed: 1, Days: 1, WarmupDays: warmup, Granularity: core.HybridCaching, UpdateProb: 0.1})
		t.Logf("warm-up %v days: %.3f J/query, hit ratio %.3f", warmup, res.Account.EnergyPerQuery(), res.HitRatio)
		if res.Account.EnergyPerQuery() <= 0 || res.Account.EnergyPerQuery() > prev {
			t.Fatalf("warm-up %v days: %.3f J per query, after %.3f at a shorter warm-up",
				warmup, res.Account.EnergyPerQuery(), prev)
		}
		prev = res.Account.EnergyPerQuery()
	}
}

// checkAccounting runs cfg with a trace collector and checks that each
// query record's outcome counts sum to its reads, with errors only on
// fresh-hit, stale, degraded or peer reads, and that the records issued at
// or after the warm-up horizon add up to the Result: the hit ratio, the
// error rate (over served reads), and every read count of Result.Account. A second run of the same config renders the same Result and
// the same records.
func checkAccounting(t testing.TB, cfg Config) {
	t.Helper()
	tr := &trace.Collector{}
	cfg.Tracer = tr
	res := Run(cfg)
	warmup := res.Config.WarmupDays * workload.SecondsPerDay
	var pool metrics.ReadCounts
	for _, r := range tr.Records {
		if r.Total() != uint64(r.Reads) {
			t.Fatalf("query %+v: outcome counts sum to %d, not its %d reads\n%+v", r, r.Total(), r.Reads, cfg)
		}
		if r.Errors > r.Hits+r.Stale+r.Peer {
			t.Fatalf("query %+v: more errors than hit, stale and peer reads\n%+v", r, cfg)
		}
		if r.IssuedAt >= warmup {
			pool.Add(r.ReadCounts)
		}
	}
	if got := pool.HitRatio(); got != res.HitRatio {
		t.Fatalf("records: %d hits / %d reads = %v; Result.HitRatio %v\n%+v", pool.Hits, pool.Total(), got, res.HitRatio, cfg)
	}
	if got := pool.ErrorRate(); got != res.ErrorRate {
		t.Fatalf("records: %d errors / %d served reads = %v; Result.ErrorRate %v\n%+v",
			pool.Errors, pool.Total()-pool.Unavailable, got, res.ErrorRate, cfg)
	}
	if pool != res.Account.ReadCounts {
		t.Fatalf("records count reads %+v; Result.Account %+v\n%+v", pool, res.Account.ReadCounts, cfg)
	}
	records := tr.Records
	tr.Records = nil
	if again := Run(cfg); fmt.Sprintf("%+v", again) != fmt.Sprintf("%+v", res) {
		t.Fatalf("a second run rendered differently:\n%+v\nvs\n%+v", again, res)
	}
	if !reflect.DeepEqual(tr.Records, records) {
		t.Fatalf("a second run traced different records\n%+v", cfg)
	}
}
