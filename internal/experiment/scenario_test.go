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
	"repro/internal/workload"
)

func TestScenarioDefaults(t *testing.T) {
	sc, err := New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.Config()
	if cfg.NumClients != 10 || cfg.Days != 4 || cfg.Policy != "ewma-0.5" ||
		cfg.NumObjects != 2000 || cfg.StorageObjects != 400 {
		t.Fatalf("scenario defaults diverge from Table 1: %+v", cfg)
	}
	if !math.IsNaN(cfg.PrefetchKappa) {
		t.Fatal("unset PrefetchKappa must default to the NaN sentinel")
	}
}

// TestScenarioCoherenceNames: WithCoherence accepts strategy names as well
// as enum values, and the broadcast-IR strategy composes with fleets (only
// the legacy point-to-point IR scheme is cell-bound).
func TestScenarioCoherenceNames(t *testing.T) {
	sc, err := New(
		WithCoherence("irb"),
		WithFleet(100, 4),
		WithIRWindow(600),
		WithCooperative(3),
		WithGranularity(core.HybridCaching),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.Config()
	if cfg.Coherence != coherence.IRBroadcastStrategy || cfg.IRWindow != 600 ||
		cfg.CoopPeers != 3 {
		t.Fatalf("named coherence options not applied: %+v", cfg)
	}
	for name, want := range map[string]coherence.Strategy{
		"lease": coherence.LeaseStrategy,
		"fixed": coherence.FixedLeaseStrategy,
		"ir":    coherence.InvalidationReportStrategy,
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
}

func TestScenarioOptionsApply(t *testing.T) {
	sc, err := New(
		WithLabel("opts"),
		WithSeed(7),
		WithFleet(100, 4),
		WithObjects(800),
		WithHorizonDays(0.5),
		WithGranularity(core.AttributeCaching),
		WithPolicy("lru-3"),
		WithQueryKind(workload.Navigational),
		WithHeat(ChangingSkewedHeat),
		WithCSHChangeEvery(300),
		WithArrival(BurstyArrival),
		WithUpdateProb(0.3),
		WithCoherence(coherence.FixedLeaseStrategy),
		WithFixedLease(60),
		WithLoss(0.1),
		WithRetry(5, 2),
		WithRelayCache(50),
		WithBackbone(1e6, 0.01),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.Config()
	if cfg.NumClients != 100 || cfg.Cells != 4 || cfg.NumObjects != 800 ||
		cfg.Granularity != core.AttributeCaching || cfg.Policy != "lru-3" ||
		cfg.QueryKind != workload.Navigational || cfg.Heat != ChangingSkewedHeat ||
		cfg.CSHChangeEvery != 300 || cfg.Arrival != BurstyArrival ||
		cfg.UpdateProb != 0.3 || cfg.Coherence != coherence.FixedLeaseStrategy ||
		cfg.FixedLease != 60 || cfg.LossRate != 0.1 || cfg.RetryMax != 5 ||
		cfg.RelayObjects != 50 || cfg.BackboneBandwidthBps != 1e6 {
		t.Fatalf("options not applied: %+v", cfg)
	}
}

// TestScenarioValidationErrors pins the named-error contract: every
// rejected option combination wraps exactly the sentinel a caller would
// branch on with errors.Is.
func TestScenarioValidationErrors(t *testing.T) {
	// A Config arriving whole (flags, a manifest, the Exp* sweeps) meets
	// the same validator the options do.
	bridged := func(c Config) []Option { return []Option{WithConfig(c)} }
	cases := []struct {
		name string
		opts []Option
		want error
	}{
		{"negative horizon", []Option{WithHorizonDays(-1)}, ErrOutOfRange},
		{"zero clients", []Option{WithClients(0)}, ErrOutOfRange},
		{"probability above 1", []Option{WithUpdateProb(1.5)}, ErrOutOfRange},
		{"loss above 1", []Option{WithLoss(2)}, ErrOutOfRange},
		{"unknown granularity", []Option{WithGranularity(core.Granularity(99))}, ErrOutOfRange},
		{"unknown heat", []Option{WithHeat(HeatKind(42))}, ErrOutOfRange},
		{"unknown coherence", []Option{WithCoherence(coherence.Strategy(9))}, ErrOutOfRange},
		{"unknown coherence name", []Option{WithCoherence("gossip")}, ErrOutOfRange},
		{"zero ir window", []Option{WithIRWindow(0)}, ErrOutOfRange},
		{"negative cooperation", []Option{WithCooperative(-1)}, ErrOutOfRange},
		{"ir window under report interval", []Option{
			WithCoherence("irb"), WithReportInterval(60), WithIRWindow(30)}, ErrConflict},
		{"cooperation without caching", []Option{
			WithGranularity(core.NoCache), WithCooperative(3)}, ErrConflict},
		{"bad policy spec", []Option{WithPolicy("no-such-policy")}, ErrBadSpec},
		{"more cells than clients", []Option{WithFleet(4, 8)}, ErrConflict},
		{"cells exceed default fleet", []Option{WithCells(64)}, ErrConflict},
		{"clients contradict fleet", []Option{WithFleet(100, 4), WithClients(50)}, ErrConflict},
		{"broadcast without shared pool", []Option{WithBroadcastAttrs(2)}, ErrConflict},
		{"ir on a fleet", []Option{
			WithFleet(100, 4), WithCoherence(coherence.InvalidationReportStrategy)}, ErrConflict},
		{"disconnect more than fleet", []Option{WithDisconnection(20, 1)}, ErrConflict},

		{"config update prob", bridged(Config{UpdateProb: 1.5}), ErrOutOfRange},
		{"config negative days", bridged(Config{Days: -1}), ErrOutOfRange},
		{"config NaN days", bridged(Config{Days: math.NaN()}), ErrOutOfRange},
		{"config negative warmup", bridged(Config{WarmupDays: -1}), ErrOutOfRange},
		{"config loss rate", bridged(Config{LossRate: 2}), ErrOutOfRange},
		{"config corrupt rate", bridged(Config{CorruptRate: -0.1}), ErrOutOfRange},
		{"config burst fraction", bridged(Config{BurstFraction: 1}), ErrOutOfRange},
		{"config burst length", bridged(Config{MeanBadSeconds: -1}), ErrOutOfRange},
		{"config bad-state loss", bridged(Config{BadLossProb: 1.5}), ErrOutOfRange},
		{"config retry backoff", bridged(Config{RetryBackoff: -1}), ErrOutOfRange},
		{"config share prob", bridged(Config{SharedHotObjects: 10, SharedHotProb: 3}), ErrOutOfRange},
		{"config one object", bridged(Config{NumObjects: 1}), ErrOutOfRange},
		{"config negative objects", bridged(Config{NumObjects: -5}), ErrOutOfRange},
		{"config objects under selectivity", bridged(Config{NumObjects: 5}), ErrConflict},
		{"config negative clients", bridged(Config{NumClients: -3}), ErrOutOfRange},
		{"config disconnect hours", bridged(Config{DisconnectedClients: 2, DisconnectHours: 30}), ErrOutOfRange},
		{"config negative disconnected", bridged(Config{DisconnectedClients: -1}), ErrOutOfRange},
		{"config csh change rate", bridged(Config{Heat: ChangingSkewedHeat, CSHChangeEvery: -5}), ErrOutOfRange},
		{"config cyclic loop too small", bridged(Config{Heat: CyclicHeat, CyclicLoop: 2}), ErrConflict},
		{"config negative cells", bridged(Config{Cells: -2}), ErrOutOfRange},
		{"config negative relay", bridged(Config{RelayObjects: -5}), ErrOutOfRange},
		{"config negative coop", bridged(Config{CoopPeers: -2}), ErrOutOfRange},
		{"config negative shed", bridged(Config{ShedThreshold: -1}), ErrOutOfRange},
		{"config buffer ratio", bridged(Config{ServerBufferRatio: 7}), ErrOutOfRange},
		{"config poisson rate", bridged(Config{PoissonRate: -1}), ErrOutOfRange},
		{"config negative selectivity", bridged(Config{Selectivity: -1}), ErrOutOfRange},
		{"config attrs per object", bridged(Config{AttrsPerObj: 10}), ErrOutOfRange},
		{"config unknown heat", bridged(Config{Heat: HeatKind(42)}), ErrOutOfRange},
		{"config unknown arrival", bridged(Config{Arrival: ArrivalKind(7)}), ErrOutOfRange},
		{"config unknown granularity", bridged(Config{Granularity: core.Granularity(-1)}), ErrOutOfRange},
		{"config unknown query kind", bridged(Config{QueryKind: workload.Kind(5)}), ErrOutOfRange},
		{"config unknown coherence", bridged(Config{Coherence: coherence.Strategy(9)}), ErrOutOfRange},
		{"config negative client storage", bridged(Config{StorageObjects: -1}), ErrOutOfRange},
		{"config negative client buffer", bridged(Config{MemBufferObjects: -1}), ErrOutOfRange},
		{"config negative server buffer", bridged(Config{ServerBufferObjects: -1}), ErrOutOfRange},
		{"config backbone bandwidth", bridged(Config{BackboneBandwidthBps: -1}), ErrOutOfRange},
		{"config backbone latency", bridged(Config{BackboneLatency: -0.01}), ErrOutOfRange},
		{"config negative fixed lease", bridged(Config{FixedLease: -60}), ErrOutOfRange},
		{"config negative report interval", bridged(Config{ReportInterval: -60}), ErrOutOfRange},
		{"config broadcast attrs", bridged(Config{SharedHotObjects: 10, BroadcastAttrs: 12}), ErrOutOfRange},
		{"config shared pool is the database", bridged(Config{NumObjects: 100, SharedHotObjects: 100}), ErrConflict},
		{"config pool under a query at share prob 1", bridged(Config{SharedHotObjects: 10, SharedHotProb: 1}), ErrConflict},
		{"config bad policy", bridged(Config{Policy: "no-such-policy"}), ErrBadSpec},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.opts...)
			if err == nil {
				t.Fatal("invalid scenario accepted")
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("error %v does not wrap %v", err, c.want)
			}
		})
	}

	// Negative beta is a paper value (Figure 7 sweeps -1, 0, 1), not an
	// error; and a defaulted Config — what every Exp* sweep hands to Run —
	// validates as it stands.
	if _, err := New(WithBeta(-1)); err != nil {
		t.Fatalf("WithBeta(-1) rejected: %v", err)
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
	if !reflect.DeepEqual(stripConfig(got), stripConfig(want)) {
		t.Fatalf("scenario run diverged from Run:\n%+v\nvs\n%+v", got, want)
	}
}

func TestScenarioWithConfigBridge(t *testing.T) {
	base := Config{Seed: 3, NumClients: 8, Cells: 2, NumObjects: 400, Days: 0.05}
	sc, err := New(WithConfig(base), WithUpdateProb(0.2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.Config()
	if cfg.Cells != 2 || cfg.UpdateProb != 0.2 {
		t.Fatalf("bridge lost fields: %+v", cfg)
	}
	// The bridge still validates: a manifest asking for more cells than
	// clients must be rejected, not run.
	if _, err := New(WithConfig(Config{NumClients: 2, Cells: 4})); !errors.Is(err, ErrConflict) {
		t.Fatalf("invalid bridged config accepted: %v", err)
	}
}

// TestValidatedConfigsRun is the other half of the Validate contract: a
// Config it accepts builds and runs without reaching a constructor
// assertion (or, as SharedHotProb = 1 over a pool smaller than a query once
// did, never finishing). Values are drawn around every bound Validate
// mirrors; most draws are rejected, the rest must run.
func TestValidatedConfigsRun(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pick := func(xs ...int) int { return xs[r.Intn(len(xs))] }
	pickF := func(xs ...float64) float64 { return xs[r.Intn(len(xs))] }
	ran := 0
	for i := 0; i < 800; i++ {
		cfg := Config{
			Seed: uint64(i), Days: pickF(0.002, 0.01),
			NumObjects: pick(0, 2, 3, 4, 5, 8, 9, 21, 40, 100), NumClients: pick(0, 1, 2, 5),
			Granularity:    core.Granularity(pick(0, 1, 2, 3)),
			StorageObjects: pick(0, 0, 1, 3), MemBufferObjects: pick(0, 0, 1),
			ServerBufferObjects: pick(0, 0, 1), ServerBufferRatio: pickF(0, 0, 0.01, 1),
			QueryKind: workload.Kind(pick(0, 1)), Heat: HeatKind(pick(0, 1, 2)),
			CSHChangeEvery: pick(0, 1, 5), CyclicLoop: pick(0, 0, 1, 3, 7), CyclicBurst: pick(0, 1),
			Arrival: ArrivalKind(pick(0, 1)), PoissonRate: pickF(0, 0.1, 1),
			Selectivity: pick(0, 1, 2, 4, 8, 20), AttrsPerObj: pick(0, 1, 9),
			UpdateProb: pickF(0, 0.5, 1), Beta: pickF(-1, 0, 1), ShedThreshold: pickF(0, 0.5),
			Coherence:      coherence.Strategy(pick(0, 1, 2, 3)),
			ReportInterval: pickF(0, 10), FixedLease: pickF(0, 5), IRWindow: pickF(0, 10, 100),
			CoopPeers: pick(0, 0, 2), SharedHotObjects: pick(0, 0, 1, 3, 20),
			SharedHotProb: pickF(0, 0.5, 1), BroadcastAttrs: pick(0, 0, 1, 9),
			DisconnectedClients: pick(0, 0, 1, 2), DisconnectHours: pickF(0, 1, 24),
			LossRate: pickF(0, 0, 0.2, 1), CorruptRate: pickF(0, 0, 0.1),
			BurstFraction: pickF(0, 0, 0.5), BadLossProb: pickF(0, 0.5),
			RetryMax: pick(0, -1, 2), Cells: pick(0, 1, 2, 3), RelayObjects: pick(0, 5),
		}
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
			Run(cfg)
		}()
	}
	if ran < 100 {
		t.Fatalf("only %d of the drawn configs validated; the draw no longer probes Run", ran)
	}
}
