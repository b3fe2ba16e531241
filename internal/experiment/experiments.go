package experiment

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/workload"
)

// This file defines the paper's six experiments (§5). Each Exp* function
// takes a base Config whose set fields override the paper's defaults —
// benchmarks pass shorter horizons and smaller populations; the CLI passes
// an empty base for the full-scale tables.

// merge applies the experiment-specific settings on top of the base.
func merge(base Config, mut func(*Config)) Config {
	cfg := base
	mut(&cfg)
	return Defaults(cfg)
}

// standardPolicies is the replacement-policy lineup of Experiments #2/#3.
func standardPolicies() []string {
	return []string{"lru", "lru-3", "lrd", "mean", "win-10", "ewma-0.5"}
}

// adaptivePolicies is the shortlist carried into Experiment #4.
func adaptivePolicies() []string {
	return []string{"lru", "lru-3", "lrd", "ewma-0.5"}
}

// Exp1 — Figure 2: caching granularity (NC/AC/OC/HC) across query type,
// arrival pattern, and heat distribution; U = 0.1, 10 clients, EWMA-0.5.
//
// Like every Exp* sweep, the runs are enqueued first and executed on the
// default worker pool (see Runner); the table-building continuations fire
// in submission order, so the output is identical to a serial loop.
func Exp1(base Config) *Report {
	rep := &Report{Name: "exp1"}
	var b batch
	for _, kind := range []workload.Kind{workload.Associative, workload.Navigational} {
		for _, arrival := range []ArrivalKind{PoissonArrival, BurstyArrival} {
			for _, heat := range []HeatKind{SkewedHeat, ChangingSkewedHeat} {
				tbl := NewTable(
					fmt.Sprintf("Figure 2 — %s, %s arrivals, %s heat",
						kind, arrival, heatTag(heat, 500)),
					"granularity", "hit%", "resp(s)", "err%", "queries")
				rep.Tables = append(rep.Tables, tbl)
				for _, g := range core.Granularities() {
					cfg := merge(base, func(c *Config) {
						c.Label = fmt.Sprintf("exp1/%s/%s/%s/%s",
							g, kind, arrival, heatTag(heat, 500))
						c.Granularity = g
						c.QueryKind = kind
						c.Arrival = arrival
						c.Heat = heat
						c.UpdateProb = 0.1
						c.Policy = "ewma-0.5"
					})
					b.add(cfg, func(res Result) {
						tbl.Add(g.String(), pct(res.HitRatio), secs(res.MeanResponse),
							pct(res.ErrorRate), fmt.Sprint(res.QueriesIssued))
					})
				}
			}
		}
	}
	b.collect(rep)
	return rep
}

// Exp2 — Figure 3: replacement policies at their best case — read-only
// (U = 0), a single client, hybrid caching.
func Exp2(base Config) *Report {
	rep := &Report{Name: "exp2"}
	var b batch
	for _, kind := range []workload.Kind{workload.Associative, workload.Navigational} {
		for _, heat := range []HeatKind{SkewedHeat, ChangingSkewedHeat} {
			tbl := NewTable(
				fmt.Sprintf("Figure 3 — %s, %s heat (U=0, 1 client, HC)",
					kind, heatTag(heat, 500)),
				"policy", "hit%", "resp(s)", "queries")
			rep.Tables = append(rep.Tables, tbl)
			for _, pol := range standardPolicies() {
				cfg := merge(base, func(c *Config) {
					c.Label = fmt.Sprintf("exp2/%s/%s/%s", pol, kind, heatTag(heat, 500))
					c.Granularity = core.HybridCaching
					c.QueryKind = kind
					c.Heat = heat
					c.UpdateProb = 0
					c.Policy = pol
					c.NumClients = 1
				})
				b.add(cfg, func(res Result) {
					tbl.Add(pol, pct(res.HitRatio), secs(res.MeanResponse),
						fmt.Sprint(res.QueriesIssued))
				})
			}
		}
	}
	b.collect(rep)
	return rep
}

// Exp3 — Figure 4: the same policy lineup under a realistic environment —
// U = 0.1, 10 clients, both arrival patterns.
func Exp3(base Config) *Report {
	rep := &Report{Name: "exp3"}
	var b batch
	for _, kind := range []workload.Kind{workload.Associative, workload.Navigational} {
		for _, arrival := range []ArrivalKind{PoissonArrival, BurstyArrival} {
			for _, heat := range []HeatKind{SkewedHeat, ChangingSkewedHeat} {
				tbl := NewTable(
					fmt.Sprintf("Figure 4 — %s, %s arrivals, %s heat (U=0.1, 10 clients, HC)",
						kind, arrival, heatTag(heat, 500)),
					"policy", "hit%", "resp(s)", "err%")
				rep.Tables = append(rep.Tables, tbl)
				for _, pol := range standardPolicies() {
					cfg := merge(base, func(c *Config) {
						c.Label = fmt.Sprintf("exp3/%s/%s/%s/%s",
							pol, kind, arrival, heatTag(heat, 500))
						c.Granularity = core.HybridCaching
						c.QueryKind = kind
						c.Arrival = arrival
						c.Heat = heat
						c.UpdateProb = 0.1
						c.Policy = pol
					})
					b.add(cfg, func(res Result) {
						tbl.Add(pol, pct(res.HitRatio), secs(res.MeanResponse), pct(res.ErrorRate))
					})
				}
			}
		}
	}
	b.collect(rep)
	return rep
}

// Exp4 — Figure 5: LRU/LRU-3/LRD/EWMA-0.5 on CSH with change rates 300,
// 500, 700 queries (AQ, Poisson, U=0.1, HC).
func Exp4(base Config) *Report {
	rep := &Report{Name: "exp4"}
	var b batch
	for _, changeEvery := range []int{300, 500, 700} {
		tbl := NewTable(
			fmt.Sprintf("Figure 5 — CSH change rate %d queries (AQ, Poisson, U=0.1, HC)",
				changeEvery),
			"policy", "hit%", "resp(s)")
		rep.Tables = append(rep.Tables, tbl)
		for _, pol := range adaptivePolicies() {
			cfg := merge(base, func(c *Config) {
				c.Label = fmt.Sprintf("exp4/%s/csh-%d", pol, changeEvery)
				c.Granularity = core.HybridCaching
				c.QueryKind = workload.Associative
				c.Heat = ChangingSkewedHeat
				c.CSHChangeEvery = changeEvery
				c.UpdateProb = 0.1
				c.Policy = pol
			})
			b.add(cfg, func(res Result) {
				tbl.Add(pol, pct(res.HitRatio), secs(res.MeanResponse))
			})
		}
	}
	b.collect(rep)
	return rep
}

// Exp4Cyclic — Figure 6: the same four policies on the cyclic access
// pattern of the LRU-k evaluation.
func Exp4Cyclic(base Config) *Report {
	rep := &Report{Name: "exp4-cyclic"}
	var b batch
	tbl := NewTable("Figure 6 — cyclic access pattern (AQ, Poisson, U=0.1, HC)",
		"policy", "hit%", "resp(s)")
	rep.Tables = append(rep.Tables, tbl)
	for _, pol := range adaptivePolicies() {
		cfg := merge(base, func(c *Config) {
			c.Label = "exp4-cyclic/" + pol
			c.Granularity = core.HybridCaching
			c.QueryKind = workload.Associative
			c.Heat = CyclicHeat
			c.UpdateProb = 0.1
			c.Policy = pol
		})
		b.add(cfg, func(res Result) {
			tbl.Add(pol, pct(res.HitRatio), secs(res.MeanResponse))
		})
	}
	b.collect(rep)
	return rep
}

// Exp5 — Figure 7: coherence sensitivity — error rate, hit ratio, and
// response time for AC/OC/HC across update probability U ∈ {0.1,0.3,0.5}
// and staleness tolerance β ∈ {−1,0,1} (AQ, Poisson, SH, EWMA-0.5).
func Exp5(base Config) *Report {
	rep := &Report{Name: "exp5"}
	var b batch
	for _, beta := range []float64{-1, 0, 1} {
		tbl := NewTable(fmt.Sprintf("Figure 7 — beta = %g (AQ, Poisson, SH, EWMA-0.5)", beta),
			"granularity", "U", "err%", "hit%", "resp(s)")
		rep.Tables = append(rep.Tables, tbl)
		for _, g := range []core.Granularity{core.AttributeCaching, core.ObjectCaching, core.HybridCaching} {
			for _, u := range []float64{0.1, 0.3, 0.5} {
				cfg := merge(base, func(c *Config) {
					c.Label = fmt.Sprintf("exp5/%s/beta=%g/U=%g", g, beta, u)
					c.Granularity = g
					c.QueryKind = workload.Associative
					c.Heat = SkewedHeat
					c.UpdateProb = u
					c.Beta = beta
					c.Policy = "ewma-0.5"
				})
				b.add(cfg, func(res Result) {
					tbl.Addf(g.String(), u, 100*res.ErrorRate, 100*res.HitRatio, res.MeanResponse)
				})
			}
		}
	}
	b.collect(rep)
	return rep
}

// Exp6 — Figure 8: error rates under disconnection — duration D ∈ 1..10
// hours and V ∈ {1,3,5,7,9} disconnected clients, per granularity; panel
// (d) is the D = 5h slice against V.
func Exp6(base Config) *Report {
	return exp6(base, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []int{1, 3, 5, 7, 9})
}

// Exp6Quick runs a sparser D×V grid for time-constrained sweeps.
func Exp6Quick(base Config) *Report {
	return exp6(base, []float64{1, 5, 10}, []int{1, 5, 9})
}

func exp6(base Config, durations []float64, disconnected []int) *Report {
	rep := &Report{Name: "exp6"}
	type key struct {
		g core.Granularity
		v int
		d float64
	}
	errRates := make(map[key]float64)
	var b batch
	grans := []core.Granularity{core.AttributeCaching, core.ObjectCaching, core.HybridCaching}
	for _, g := range grans {
		tbl := NewTable(
			fmt.Sprintf("Figure 8 — error rate %% under disconnection, %s (rows: V, cols: D hours)", g),
			append([]string{"V\\D"}, floatHeaders(durations)...)...)
		rep.Tables = append(rep.Tables, tbl)
		for _, v := range disconnected {
			// The row is appended to the table now and its cells are filled
			// in place by the continuations during collect.
			row := make([]string, 1+len(durations))
			row[0] = fmt.Sprint(v)
			tbl.Rows = append(tbl.Rows, row)
			for di, d := range durations {
				cfg := merge(base, func(c *Config) {
					c.Label = fmt.Sprintf("exp6/%s/V=%d/D=%g", g, v, d)
					c.Granularity = g
					c.QueryKind = workload.Associative
					c.Heat = SkewedHeat
					c.UpdateProb = 0.1
					c.Policy = "ewma-0.5"
					c.DisconnectedClients = v
					c.DisconnectHours = d
				})
				b.add(cfg, func(res Result) {
					errRates[key{g, v, d}] = res.ErrorRate
					row[1+di] = pct(res.ErrorRate)
				})
			}
		}
	}
	b.collect(rep)
	// Panel (d): error rate against V at fixed D (5h when present, else the
	// middle of the grid).
	dFix := durations[len(durations)/2]
	for _, d := range durations {
		if d == 5 {
			dFix = 5
		}
	}
	tbl := NewTable(fmt.Sprintf("Figure 8d — error rate %% vs disconnected clients (D = %gh)", dFix),
		"V", "ac", "oc", "hc")
	for _, v := range disconnected {
		tbl.Add(fmt.Sprint(v),
			pct(errRates[key{core.AttributeCaching, v, dFix}]),
			pct(errRates[key{core.ObjectCaching, v, dFix}]),
			pct(errRates[key{core.HybridCaching, v, dFix}]))
	}
	rep.Tables = append(rep.Tables, tbl)
	return rep
}

// Exp7 — beyond the paper: unreliable channels. Sweeps the per-frame loss
// rate across caching granularity and coherence scheme (AQ, Poisson, SH,
// U = 0.1, EWMA-0.5) with the client reliability layer at its defaults,
// reporting the access-error rate (coherence violations + unavailable
// reads) and the query response time; a second panel sweeps burst-outage
// length at fixed loss via the Gilbert–Elliott chain. See DESIGN.md §9.
func Exp7(base Config) *Report {
	return exp7(base,
		[]float64{0, 0.05, 0.1, 0.2, 0.3},
		[]coherence.Strategy{coherence.LeaseStrategy, coherence.FixedLeaseStrategy},
		[]float64{5, 10, 30})
}

// Exp7Quick runs a sparser loss grid (lease coherence only, no burst
// panel) for time-constrained sweeps.
func Exp7Quick(base Config) *Report {
	return exp7(base,
		[]float64{0, 0.1, 0.3},
		[]coherence.Strategy{coherence.LeaseStrategy},
		nil)
}

func exp7(base Config, losses []float64, strategies []coherence.Strategy,
	badSojourns []float64) *Report {

	rep := &Report{Name: "exp7"}
	var b batch
	grans := core.Granularities()

	// Panel 1: frame-loss sweep, one error table and one response-time
	// table per coherence scheme. Rows are appended up front and filled in
	// place by the continuations (same pattern as Exp6).
	for _, strat := range strategies {
		tblErr := NewTable(
			fmt.Sprintf("Experiment #7 — access-error %% vs frame-loss rate (%s coherence)", strat),
			append([]string{"g\\loss"}, floatHeaders(losses)...)...)
		tblResp := NewTable(
			fmt.Sprintf("Experiment #7 — response time (s) vs frame-loss rate (%s coherence)", strat),
			append([]string{"g\\loss"}, floatHeaders(losses)...)...)
		rep.Tables = append(rep.Tables, tblErr, tblResp)
		for _, g := range grans {
			rowE := make([]string, 1+len(losses))
			rowR := make([]string, 1+len(losses))
			rowE[0], rowR[0] = g.String(), g.String()
			tblErr.Rows = append(tblErr.Rows, rowE)
			tblResp.Rows = append(tblResp.Rows, rowR)
			for li, loss := range losses {
				strat, g := strat, g
				cfg := merge(base, func(c *Config) {
					c.Label = fmt.Sprintf("exp7/%s/%s/loss=%g", strat, g, loss)
					c.Granularity = g
					c.QueryKind = workload.Associative
					c.Heat = SkewedHeat
					c.UpdateProb = 0.1
					c.Policy = "ewma-0.5"
					c.Coherence = strat
					c.LossRate = loss
				})
				li := li
				b.add(cfg, func(res Result) {
					rowE[1+li] = fmt.Sprintf("%.2f", 100*res.Account.AccessErrorRate())
					rowR[1+li] = secs(res.MeanResponse)
				})
			}
		}
	}

	// Panel 2: burst outages — 20% of the time in the Bad state, sweeping
	// the mean outage length at a fixed 5% Good-state loss (lease
	// coherence). Longer sojourns at the same stationary Bad fraction mean
	// rarer but longer outages — the regime where retries exhaust and
	// degraded serving takes over.
	if len(badSojourns) > 0 {
		hdr := []string{"g\\outage"}
		for _, s := range badSojourns {
			hdr = append(hdr, fmt.Sprintf("err%%@%gs", s), fmt.Sprintf("resp@%gs", s))
		}
		tbl := NewTable(
			"Experiment #7 — burst outages (GE chain, 20% bad, loss 0.05; lease coherence)",
			hdr...)
		rep.Tables = append(rep.Tables, tbl)
		for _, g := range grans {
			row := make([]string, 1+2*len(badSojourns))
			row[0] = g.String()
			tbl.Rows = append(tbl.Rows, row)
			for si, sojourn := range badSojourns {
				g := g
				cfg := merge(base, func(c *Config) {
					c.Label = fmt.Sprintf("exp7/burst/%s/sojourn=%g", g, sojourn)
					c.Granularity = g
					c.QueryKind = workload.Associative
					c.Heat = SkewedHeat
					c.UpdateProb = 0.1
					c.Policy = "ewma-0.5"
					c.LossRate = 0.05
					c.BurstFraction = 0.2
					c.MeanBadSeconds = sojourn
				})
				si := si
				b.add(cfg, func(res Result) {
					row[1+2*si] = fmt.Sprintf("%.2f", 100*res.Account.AccessErrorRate())
					row[2+2*si] = secs(res.MeanResponse)
				})
			}
		}
	}
	b.collect(rep)
	return rep
}

// Table1 renders the paper's parameter-settings table from the defaults.
func Table1() *Table {
	cfg := Defaults(Config{})
	tbl := NewTable("Table 1 — simulation parameter settings",
		"parameter", "value")
	tbl.Add("database objects", fmt.Sprint(cfg.NumObjects))
	tbl.Add("object size", "1024 B (9 primitive attrs + 3 relationships)")
	tbl.Add("mobile clients", fmt.Sprint(cfg.NumClients))
	tbl.Add("wireless channels", "2 x 19.2 Kbps (up/down, shared FCFS)")
	tbl.Add("server memory buffer", fmt.Sprintf("%d objects (LRU)", cfg.ServerBufferObjects()))
	tbl.Add("client memory buffer", fmt.Sprintf("%d objects (LRU)", cfg.MemBufferObjects))
	tbl.Add("client storage cache", fmt.Sprintf("%d objects (%s)", cfg.StorageObjects, cfg.Policy))
	tbl.Add("disk / memory bandwidth", "40 Mbps / 100 Mbps")
	tbl.Add("message header", "11 B (IP + CRC)")
	tbl.Add("query selectivity", fmt.Sprintf("%d objects (1%%)", workload.DefaultSelectivity))
	tbl.Add("attrs accessed per object (Q_a)", fmt.Sprint(cfg.AttrsPerObj))
	tbl.Add("arrival", fmt.Sprintf("Poisson %.3g/s or Bursty day profile", workload.DefaultPoissonRate))
	tbl.Add("simulated duration", fmt.Sprintf("%g days", cfg.Days))
	return tbl
}

// heatTag renders a heat family for table headers: CSH carries its
// change rate.
func heatTag(h HeatKind, changeEvery int) string {
	if h == ChangingSkewedHeat {
		return fmt.Sprintf("%s-%d", h, changeEvery)
	}
	return h.String()
}

func floatHeaders(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%g", x)
	}
	return out
}
