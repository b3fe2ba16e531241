// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation (§5) at benchmark scale and reports the paper's
// metrics alongside wall-clock cost:
//
//	go test -bench=. -benchmem
//
// Each Benchmark* corresponds to one experiment (see DESIGN.md's
// per-experiment index); sub-benchmarks are the series of the figure. The
// reported custom metrics are hit% (average cache hit ratio), resp_s
// (average response time in seconds), and err% (error rate). Benchmark
// runs use a reduced horizon (same population and ratios as Table 1);
// `go run ./cmd/mcsim exp N` regenerates the full-scale numbers recorded
// in EXPERIMENTS.md.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// benchDays is the simulated horizon per benchmark iteration. A quarter
// day keeps one iteration around a hundred milliseconds while still
// reaching cache steady state.
const benchDays = 0.25

// benchBase returns the common benchmark configuration: the paper's
// population at a reduced horizon.
func benchBase() experiment.Config {
	return experiment.Config{
		Seed:        1,
		Days:        benchDays,
		QueryKind:   workload.Associative,
		Heat:        experiment.SkewedHeat,
		Granularity: core.HybridCaching,
		UpdateProb:  0.1,
	}
}

// reportRun executes cfg once per iteration and attaches the paper's
// metrics to the benchmark result.
func reportRun(b *testing.B, cfg experiment.Config) {
	b.Helper()
	var res experiment.Result
	for i := 0; i < b.N; i++ {
		res = experiment.Run(cfg)
	}
	b.ReportMetric(100*res.HitRatio, "hit%")
	b.ReportMetric(res.MeanResponse, "resp_s")
	b.ReportMetric(100*res.ErrorRate, "err%")
}

// BenchmarkTable1_Defaults runs the paper's default configuration
// (Table 1) once per iteration.
func BenchmarkTable1_Defaults(b *testing.B) {
	reportRun(b, benchBase())
}

// BenchmarkFullSweep executes a 16-config slice of the evaluation (the
// Exp3 policy lineup under both arrival patterns, plus the Exp1
// granularity row) on the parallel Runner at increasing pool sizes.
// serial is the workers=1 baseline; on an N-core machine the sweep's
// wall-clock should shrink roughly N-fold (each run is an independent
// simulation), while the reported tables stay byte-identical — see
// TestParallelSerialEquivalenceExp1.
func BenchmarkFullSweep(b *testing.B) {
	var cfgs []experiment.Config
	for _, arrival := range []experiment.ArrivalKind{experiment.PoissonArrival, experiment.BurstyArrival} {
		for _, pol := range []string{"lru", "lru-3", "lrd", "mean", "win-10", "ewma-0.5"} {
			cfg := benchBase()
			cfg.Arrival = arrival
			cfg.Policy = pol
			cfgs = append(cfgs, cfg)
		}
	}
	for _, g := range core.Granularities() {
		cfg := benchBase()
		cfg.Granularity = g
		cfgs = append(cfgs, cfg)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 1 {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiment.Runner{Workers: workers}.RunBatch(cfgs)
			}
			b.ReportMetric(float64(len(cfgs)), "runs")
		})
	}
}

// BenchmarkExp1_Fig2 — Figure 2: caching granularity (NC/AC/OC/HC) under
// both query kinds; U = 0.1, EWMA-0.5, Poisson arrivals.
func BenchmarkExp1_Fig2(b *testing.B) {
	for _, kind := range []workload.Kind{workload.Associative, workload.Navigational} {
		for _, g := range core.Granularities() {
			b.Run(fmt.Sprintf("%s/%s", kind, g), func(b *testing.B) {
				cfg := benchBase()
				cfg.QueryKind = kind
				cfg.Granularity = g
				reportRun(b, cfg)
			})
		}
	}
}

// BenchmarkExp2_Fig3 — Figure 3: replacement policies at their best case
// (read-only, one client, HC) on stable and changing hot sets.
func BenchmarkExp2_Fig3(b *testing.B) {
	for _, heat := range []experiment.HeatKind{experiment.SkewedHeat, experiment.ChangingSkewedHeat} {
		for _, pol := range []string{"lru", "lru-3", "lrd", "mean", "win-10", "ewma-0.5"} {
			tag := "SH"
			if heat == experiment.ChangingSkewedHeat {
				tag = "CSH"
			}
			b.Run(fmt.Sprintf("%s/%s", tag, pol), func(b *testing.B) {
				cfg := benchBase()
				cfg.Heat = heat
				cfg.UpdateProb = 0
				cfg.NumClients = 1
				cfg.Policy = pol
				cfg.Days = 1 // one client is cheap; use a longer horizon
				reportRun(b, cfg)
			})
		}
	}
}

// BenchmarkExp3_Fig4 — Figure 4: the same policies in the realistic
// environment (U = 0.1, 10 clients) under Poisson and Bursty arrivals.
func BenchmarkExp3_Fig4(b *testing.B) {
	for _, arrival := range []experiment.ArrivalKind{experiment.PoissonArrival, experiment.BurstyArrival} {
		for _, pol := range []string{"lru", "lru-3", "lrd", "mean", "win-10", "ewma-0.5"} {
			tag := "Poisson"
			if arrival == experiment.BurstyArrival {
				tag = "Bursty"
			}
			b.Run(fmt.Sprintf("%s/%s", tag, pol), func(b *testing.B) {
				cfg := benchBase()
				cfg.Arrival = arrival
				cfg.Policy = pol
				reportRun(b, cfg)
			})
		}
	}
}

// BenchmarkExp4_Fig5 — Figure 5: adaptive policies across CSH change
// rates 300/500/700 queries.
func BenchmarkExp4_Fig5(b *testing.B) {
	for _, change := range []int{300, 500, 700} {
		for _, pol := range []string{"lru", "lru-3", "lrd", "ewma-0.5"} {
			b.Run(fmt.Sprintf("csh-%d/%s", change, pol), func(b *testing.B) {
				cfg := benchBase()
				cfg.Heat = experiment.ChangingSkewedHeat
				cfg.CSHChangeEvery = change
				cfg.Policy = pol
				reportRun(b, cfg)
			})
		}
	}
}

// BenchmarkExp4_Fig6 — Figure 6: the cyclic access pattern. The full
// LRU-3 > EWMA > LRD > LRU separation needs a longer horizon (see
// TestShapeCyclicOrdering); the benchmark uses one simulated day.
func BenchmarkExp4_Fig6(b *testing.B) {
	for _, pol := range []string{"lru", "lru-3", "lrd", "ewma-0.5"} {
		b.Run(pol, func(b *testing.B) {
			cfg := benchBase()
			cfg.Heat = experiment.CyclicHeat
			cfg.Policy = pol
			cfg.Days = 1
			reportRun(b, cfg)
		})
	}
}

// BenchmarkExp5_Fig7 — Figure 7: coherence sensitivity (β × U) per
// granularity.
func BenchmarkExp5_Fig7(b *testing.B) {
	for _, beta := range []float64{-1, 0, 1} {
		for _, u := range []float64{0.1, 0.5} {
			for _, g := range []core.Granularity{core.AttributeCaching, core.ObjectCaching, core.HybridCaching} {
				b.Run(fmt.Sprintf("beta=%g/U=%g/%s", beta, u, g), func(b *testing.B) {
					cfg := benchBase()
					cfg.Beta = beta
					cfg.UpdateProb = u
					cfg.Granularity = g
					reportRun(b, cfg)
				})
			}
		}
	}
}

// BenchmarkExp6_Fig8 — Figure 8: error rates under disconnection (sparse
// D × V grid).
func BenchmarkExp6_Fig8(b *testing.B) {
	for _, v := range []int{1, 5, 9} {
		for _, d := range []float64{1, 5, 10} {
			b.Run(fmt.Sprintf("V=%d/D=%gh", v, d), func(b *testing.B) {
				cfg := benchBase()
				cfg.DisconnectedClients = v
				cfg.DisconnectHours = d
				reportRun(b, cfg)
			})
		}
	}
}

// BenchmarkAblationPrefetchKappa sweeps the hybrid-caching prefetch
// threshold position c = μ + κσ, including the paper's κ = −2 (which
// degrades HC into OC — see DESIGN.md) and κ large (which degrades HC into
// AC).
func BenchmarkAblationPrefetchKappa(b *testing.B) {
	for _, kappa := range []float64{-2, -1, 0, 1, 2} {
		b.Run(fmt.Sprintf("kappa=%g", kappa), func(b *testing.B) {
			cfg := benchBase()
			cfg.PrefetchKappa = kappa
			reportRun(b, cfg)
		})
	}
}

// BenchmarkAblationEWMAAlpha sweeps the EWMA retention weight around the
// paper's 0.5 on the changing hot set.
func BenchmarkAblationEWMAAlpha(b *testing.B) {
	for _, alpha := range []string{"ewma-0.1", "ewma-0.3", "ewma-0.5", "ewma-0.7", "ewma-0.9"} {
		b.Run(alpha, func(b *testing.B) {
			cfg := benchBase()
			cfg.Heat = experiment.ChangingSkewedHeat
			cfg.Policy = alpha
			reportRun(b, cfg)
		})
	}
}

// BenchmarkAblationBeta sweeps the coherence staleness tolerance beyond
// Figure 7's −1..1 to expose the full hit/error trade-off curve.
func BenchmarkAblationBeta(b *testing.B) {
	for _, beta := range []float64{-2, -1, 0, 1, 2, 4} {
		b.Run(fmt.Sprintf("beta=%g", beta), func(b *testing.B) {
			cfg := benchBase()
			cfg.Beta = beta
			cfg.UpdateProb = 0.3
			reportRun(b, cfg)
		})
	}
}

// BenchmarkAblationTimeoutHeuristic measures the §5.3 timeout heuristic:
// shedding prefetched items from replies that queued too long at the
// downlink, under the load that motivates it (Bursty NQ).
func BenchmarkAblationTimeoutHeuristic(b *testing.B) {
	for _, threshold := range []float64{0, 2, 5, 10} {
		name := fmt.Sprintf("threshold=%gs", threshold)
		if threshold == 0 {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchBase()
			cfg.QueryKind = workload.Navigational
			cfg.Arrival = experiment.BurstyArrival
			cfg.ShedThreshold = threshold
			var res experiment.Result
			for i := 0; i < b.N; i++ {
				res = experiment.Run(cfg)
			}
			b.ReportMetric(100*res.HitRatio, "hit%")
			b.ReportMetric(res.MeanResponse, "resp_s")
			b.ReportMetric(float64(res.Account.Events[metrics.ShedItem]), "shed")
		})
	}
}

// BenchmarkAblationCoherenceStrategy compares the paper's pull-based
// leases against the broadcast invalidation-report baseline of [2], with
// and without disconnection (the scenario that motivates leases).
func BenchmarkAblationCoherenceStrategy(b *testing.B) {
	for _, strat := range []coherence.Strategy{
		coherence.LeaseStrategy, coherence.IRBroadcastStrategy,
	} {
		for _, disc := range []int{0, 5} {
			b.Run(fmt.Sprintf("%s/V=%d", strat, disc), func(b *testing.B) {
				cfg := benchBase()
				cfg.UpdateProb = 0.3
				cfg.Coherence = strat
				cfg.DisconnectedClients = disc
				cfg.DisconnectHours = 5
				var res experiment.Result
				for i := 0; i < b.N; i++ {
					res = experiment.Run(cfg)
				}
				b.ReportMetric(100*res.HitRatio, "hit%")
				b.ReportMetric(100*res.ErrorRate, "err%")
				b.ReportMetric(float64(res.ForcedRevals), "revals")
			})
		}
	}
}

// BenchmarkAblationFixedLease compares the original Leases scheme (one
// fixed refresh duration for all items) against the paper's adaptive
// per-item estimate at the same update probability. No single fixed
// duration matches the adaptive scheme on both hit ratio and error rate —
// the difficulty §2 cites.
func BenchmarkAblationFixedLease(b *testing.B) {
	configs := []struct {
		name  string
		strat coherence.Strategy
		lease float64
	}{
		{"adaptive", coherence.LeaseStrategy, 0},
		{"fixed-60s", coherence.FixedLeaseStrategy, 60},
		{"fixed-600s", coherence.FixedLeaseStrategy, 600},
		{"fixed-6000s", coherence.FixedLeaseStrategy, 6000},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			cfg := benchBase()
			cfg.UpdateProb = 0.3
			cfg.Coherence = c.strat
			cfg.FixedLease = c.lease
			reportRun(b, cfg)
		})
	}
}

// BenchmarkExtensionBroadcast measures the hybrid dissemination mode: a
// shared interest pool aired on a broadcast channel, versus pure
// point-to-point pull for the same workload. The broadcast's fixed-latency
// delivery pays off under Bursty contention, where the shared downlink
// backlogs; under light load pull is faster (the §1 trade-off).
func BenchmarkExtensionBroadcast(b *testing.B) {
	for _, attrs := range []int{0, 2} {
		name := "pull-only"
		if attrs > 0 {
			name = fmt.Sprintf("broadcast-top%d", attrs)
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchBase()
			cfg.Days = 0.5 // must cover the 07:00-10:00 commute burst
			cfg.Arrival = experiment.BurstyArrival
			cfg.SharedHotObjects = 50
			cfg.SharedHotProb = 0.6
			cfg.BroadcastAttrs = attrs
			var res experiment.Result
			for i := 0; i < b.N; i++ {
				res = experiment.Run(cfg)
			}
			b.ReportMetric(100*res.HitRatio, "hit%")
			b.ReportMetric(res.MeanResponse, "resp_s")
			b.ReportMetric(100*res.DownlinkUtilization, "down%")
			b.ReportMetric(float64(res.Account.Air), "air_reads")
		})
	}
}

// BenchmarkAblationBaselinePolicies runs the classical baselines (FIFO,
// CLOCK, Random) that §2 surveys, for comparison against the paper's
// schemes on the default workload.
func BenchmarkAblationBaselinePolicies(b *testing.B) {
	for _, pol := range []string{"fifo", "clock", "random:3", "ewma-0.5"} {
		b.Run(pol, func(b *testing.B) {
			cfg := benchBase()
			cfg.Policy = pol
			reportRun(b, cfg)
		})
	}
}

// BenchmarkFleet — the multi-cell runs behind Experiment #8: one hundred
// clients sharded across 1/2/4/8 cells, plus the relay cache on the widest
// fleet. Cells execute on the worker pool, so Mevents/s should climb with
// the cell count until cores saturate, while hit% and resp_s stay
// byte-identical at any -parallel (TestFleetParallelInvariance).
func BenchmarkFleet(b *testing.B) {
	fleetRun := func(b *testing.B, cfg experiment.Config) {
		b.Helper()
		var res experiment.Result
		var events uint64
		for i := 0; i < b.N; i++ {
			res = experiment.Run(cfg)
			events += res.Events
		}
		b.ReportMetric(100*res.HitRatio, "hit%")
		b.ReportMetric(res.MeanResponse, "resp_s")
		b.ReportMetric(float64(res.BackboneBytes)/1e6, "backbone_MB")
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(events)/s/1e6, "Mevents/s")
		}
	}
	for _, cells := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=100/cells=%d", cells), func(b *testing.B) {
			cfg := benchBase()
			cfg.NumClients = 100
			cfg.Cells = cells
			fleetRun(b, cfg)
		})
	}
	b.Run("clients=100/cells=8/relay=200", func(b *testing.B) {
		cfg := benchBase()
		cfg.NumClients = 100
		cfg.Cells = 8
		cfg.RelayObjects = 200
		fleetRun(b, cfg)
	})
	// The scaling point: ten times the fleet on four cells (continues the
	// trajectory BENCH_fleet.json recorded as FleetEngines/engine=sm).
	b.Run("clients=1000/cells=4", func(b *testing.B) {
		cfg := benchBase()
		cfg.NumClients = 1000
		cfg.Cells = 4
		fleetRun(b, cfg)
	})
}
