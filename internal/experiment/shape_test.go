package experiment

import (
	"testing"

	"repro/internal/broadcast"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workload"
)

// These integration tests assert the *qualitative* findings of the paper's
// evaluation (§5) at reduced scale: who wins, in which direction metrics
// move, and where the granularities separate. Absolute values differ from
// the paper; orderings must not.

// shapeCfg keeps the paper's ratios (20% storage, 25% server buffer) over
// a smaller population and horizon.
func shapeCfg() Config {
	return Config{
		Seed:       7,
		NumObjects: 500,
		NumClients: 5,
		Days:       0.5,
		QueryKind:  workload.Associative,
		Heat:       SkewedHeat,
	}
}

func runG(t *testing.T, g core.Granularity, mut func(*Config)) Result {
	t.Helper()
	cfg := shapeCfg()
	cfg.Granularity = g
	cfg.UpdateProb = 0.1
	if mut != nil {
		mut(&cfg)
	}
	return Run(cfg)
}

// Figure 2: the base case (NC) performs much worse than any storage
// caching scheme on both metrics.
func TestShapeNCWorst(t *testing.T) {
	nc := runG(t, core.NoCache, nil)
	for _, g := range []core.Granularity{core.AttributeCaching, core.ObjectCaching, core.HybridCaching} {
		res := runG(t, g, nil)
		if res.HitRatio <= nc.HitRatio {
			t.Errorf("%v hit ratio %.3f <= NC %.3f", g, res.HitRatio, nc.HitRatio)
		}
		if res.MeanResponse >= nc.MeanResponse {
			t.Errorf("%v response %.3f >= NC %.3f", g, res.MeanResponse, nc.MeanResponse)
		}
	}
}

// Figure 2: OC yields higher hit ratios than AC but higher response times
// too (blind prefetching over the slow wireless link).
func TestShapeOCAnomaly(t *testing.T) {
	ac := runG(t, core.AttributeCaching, nil)
	oc := runG(t, core.ObjectCaching, nil)
	if oc.HitRatio <= ac.HitRatio {
		t.Errorf("OC hit %.3f <= AC hit %.3f", oc.HitRatio, ac.HitRatio)
	}
	if oc.MeanResponse <= ac.MeanResponse {
		t.Errorf("OC response %.3f <= AC response %.3f (blind prefetch penalty missing)",
			oc.MeanResponse, ac.MeanResponse)
	}
}

// Figure 2: HC achieves hit ratios close to OC at response times close to
// AC — concretely, HC must beat AC on hits and beat OC on response.
func TestShapeHCBestOfBoth(t *testing.T) {
	ac := runG(t, core.AttributeCaching, nil)
	oc := runG(t, core.ObjectCaching, nil)
	hc := runG(t, core.HybridCaching, nil)
	if hc.HitRatio <= ac.HitRatio {
		t.Errorf("HC hit %.3f <= AC hit %.3f", hc.HitRatio, ac.HitRatio)
	}
	if hc.MeanResponse >= oc.MeanResponse {
		t.Errorf("HC response %.3f >= OC response %.3f", hc.MeanResponse, oc.MeanResponse)
	}
}

// Figure 2: the changing hot set (CSH) lowers hit ratios relative to SH.
func TestShapeCSHLowersHits(t *testing.T) {
	sh := runG(t, core.HybridCaching, nil)
	csh := runG(t, core.HybridCaching, func(c *Config) {
		c.Heat = ChangingSkewedHeat
		c.CSHChangeEvery = 300
	})
	if csh.HitRatio >= sh.HitRatio {
		t.Errorf("CSH hit %.3f >= SH hit %.3f", csh.HitRatio, sh.HitRatio)
	}
}

// Figure 3 (read-only, one client): Mean and EWMA capture more of the hot
// set than LRU on the stable SH pattern.
func TestShapeMeanEWMABestOnSH(t *testing.T) {
	run := func(pol string) Result {
		cfg := shapeCfg()
		cfg.Granularity = core.HybridCaching
		cfg.NumClients = 1
		cfg.UpdateProb = 0
		cfg.Policy = pol
		cfg.Days = 1
		return Run(cfg)
	}
	lru := run("lru")
	mean := run("mean")
	ewma := run("ewma-0.5")
	if mean.HitRatio <= lru.HitRatio {
		t.Errorf("Mean hit %.3f <= LRU hit %.3f on SH", mean.HitRatio, lru.HitRatio)
	}
	if ewma.HitRatio <= lru.HitRatio {
		t.Errorf("EWMA hit %.3f <= LRU hit %.3f on SH", ewma.HitRatio, lru.HitRatio)
	}
}

// Figure 3 (CSH): Mean collapses when the hot set changes; EWMA adapts and
// stays ahead of Mean.
func TestShapeMeanCollapsesOnCSH(t *testing.T) {
	// Mean's failure mode needs enough hot-set epochs for its full-history
	// score to go stale: ~2 simulated days at one change per 150 queries
	// gives a dozen epochs.
	run := func(pol string) Result {
		cfg := shapeCfg()
		cfg.Granularity = core.HybridCaching
		cfg.NumClients = 1
		cfg.UpdateProb = 0
		cfg.Heat = ChangingSkewedHeat
		cfg.CSHChangeEvery = 150
		cfg.Policy = pol
		cfg.Days = 2
		return Run(cfg)
	}
	mean := run("mean")
	ewma := run("ewma-0.5")
	if ewma.HitRatio <= mean.HitRatio {
		t.Errorf("EWMA hit %.3f <= Mean hit %.3f on CSH", ewma.HitRatio, mean.HitRatio)
	}
}

// Figure 4: write operations lower hit ratios relative to the read-only
// best case.
func TestShapeWritesLowerHits(t *testing.T) {
	run := func(u float64) Result {
		cfg := shapeCfg()
		cfg.Granularity = core.HybridCaching
		cfg.UpdateProb = u
		return Run(cfg)
	}
	readOnly := run(0)
	writes := run(0.3)
	if writes.HitRatio >= readOnly.HitRatio {
		t.Errorf("hit ratio with U=0.3 (%.3f) >= read-only (%.3f)",
			writes.HitRatio, readOnly.HitRatio)
	}
}

// Figure 7: error rates grow with update probability U.
func TestShapeErrorsGrowWithU(t *testing.T) {
	var last float64 = -1
	for _, u := range []float64{0.1, 0.5} {
		res := runG(t, core.HybridCaching, func(c *Config) { c.UpdateProb = u })
		if res.ErrorRate <= last {
			t.Errorf("error rate at U=%g (%.4f) not above previous (%.4f)",
				u, res.ErrorRate, last)
		}
		last = res.ErrorRate
	}
}

// Figure 7: larger beta raises hit ratios and error rates together (longer
// leases serve more — and staler — local reads).
func TestShapeBetaTradeoff(t *testing.T) {
	run := func(beta float64) Result {
		return runG(t, core.HybridCaching, func(c *Config) {
			c.Beta = beta
			c.UpdateProb = 0.3
		})
	}
	lo := run(-1)
	hi := run(1)
	if hi.HitRatio <= lo.HitRatio {
		t.Errorf("beta=1 hit %.3f <= beta=-1 hit %.3f", hi.HitRatio, lo.HitRatio)
	}
	if hi.ErrorRate <= lo.ErrorRate {
		t.Errorf("beta=1 err %.4f <= beta=-1 err %.4f", hi.ErrorRate, lo.ErrorRate)
	}
}

// Figure 7: OC's whole-object invalidation produces more errors than the
// attribute-level granularities.
func TestShapeOCErrorsHighest(t *testing.T) {
	mut := func(c *Config) { c.UpdateProb = 0.3 }
	ac := runG(t, core.AttributeCaching, mut)
	oc := runG(t, core.ObjectCaching, mut)
	hc := runG(t, core.HybridCaching, mut)
	if oc.ErrorRate <= ac.ErrorRate {
		t.Errorf("OC err %.4f <= AC err %.4f", oc.ErrorRate, ac.ErrorRate)
	}
	if oc.ErrorRate <= hc.ErrorRate {
		t.Errorf("OC err %.4f <= HC err %.4f", oc.ErrorRate, hc.ErrorRate)
	}
}

// Figure 8: error rates grow with disconnection duration, and total errors
// grow with the number of disconnected clients.
func TestShapeDisconnectionErrors(t *testing.T) {
	run := func(v int, d float64) Result {
		return runG(t, core.HybridCaching, func(c *Config) {
			c.DisconnectedClients = v
			c.DisconnectHours = d
			c.UpdateProb = 0.3
		})
	}
	short := run(3, 1)
	long := run(3, 10)
	if long.ErrorRate <= short.ErrorRate {
		t.Errorf("D=10h err %.4f <= D=1h err %.4f", long.ErrorRate, short.ErrorRate)
	}
	few := run(1, 5)
	many := run(4, 5)
	if many.ErrorRate <= few.ErrorRate {
		t.Errorf("V=4 err %.4f <= V=1 err %.4f", many.ErrorRate, few.ErrorRate)
	}
}

// Disconnection also makes reads unavailable — never under full
// connectivity.
func TestShapeUnavailability(t *testing.T) {
	conn := runG(t, core.AttributeCaching, nil)
	if conn.Account.Unavailable != 0 {
		t.Errorf("connected run had %d unavailable reads", conn.Account.Unavailable)
	}
	disc := runG(t, core.AttributeCaching, func(c *Config) {
		c.DisconnectedClients = 3
		c.DisconnectHours = 8
	})
	if disc.Account.Unavailable == 0 {
		t.Error("disconnected run had no unavailable reads")
	}
}

// Figure 6 (cyclic pattern, full scale): LRU-3 best, LRU worst, EWMA close
// to LRU-3 and above LRD. This needs the paper's full population and a
// 1-day horizon, so it is skipped under -short.
func TestShapeCyclicOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run; skipped with -short")
	}
	run := func(pol string) Result {
		return Run(Config{
			Seed:        7,
			Granularity: core.HybridCaching,
			QueryKind:   workload.Associative,
			Heat:        CyclicHeat,
			UpdateProb:  0.1,
			Policy:      pol,
			Days:        1,
		})
	}
	lru := run("lru")
	lru3 := run("lru-3")
	lrd := run("lrd")
	ewma := run("ewma-0.5")
	if !(lru3.HitRatio > ewma.HitRatio && ewma.HitRatio > lrd.HitRatio && lrd.HitRatio > lru.HitRatio) {
		t.Errorf("cyclic ordering violated: lru-3=%.3f ewma=%.3f lrd=%.3f lru=%.3f",
			lru3.HitRatio, ewma.HitRatio, lrd.HitRatio, lru.HitRatio)
	}
	// The paper's headline: LRU-3 outperforms LRU by ~21% relative.
	if lru3.HitRatio < 1.1*lru.HitRatio {
		t.Errorf("LRU-3 advantage too small: %.3f vs %.3f", lru3.HitRatio, lru.HitRatio)
	}
}

// Experiment machinery: reports carry one table per figure panel and
// non-empty rows.
func TestReportsWellFormed(t *testing.T) {
	base := shapeCfg()
	base.Days = 0.1
	base.NumClients = 2
	rep := Exp4Cyclic(base)
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 4 {
		t.Fatalf("exp4-cyclic tables malformed: %+v", rep.Tables)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
	if Table1().String() == "" {
		t.Fatal("empty Table 1")
	}
}

func TestExp6QuickGrid(t *testing.T) {
	base := shapeCfg()
	base.Days = 0.1
	base.NumClients = 2
	rep := exp6(base, []float64{1, 5}, []int{1, 2})
	// 3 granularities x (2x2) runs + 4 tables (3 panels + panel d).
	if len(rep.Results) != 12 {
		t.Fatalf("%d results, want 12", len(rep.Results))
	}
	if len(rep.Tables) != 4 {
		t.Fatalf("%d tables, want 4", len(rep.Tables))
	}
}

// The timeout heuristic (§5.3): under Bursty NQ load the downlink
// backlogs; enabling shedding drops prefetched items and improves
// response times at some hit-ratio cost.
func TestShapeTimeoutHeuristic(t *testing.T) {
	run := func(threshold float64) Result {
		cfg := shapeCfg()
		cfg.Granularity = core.HybridCaching
		cfg.QueryKind = workload.Navigational
		cfg.Arrival = BurstyArrival
		cfg.UpdateProb = 0.1
		cfg.ShedThreshold = threshold
		cfg.Days = 1
		return Run(cfg)
	}
	off := run(0)
	on := run(5)
	if off.Account.Events[metrics.ShedItem] != 0 {
		t.Fatalf("heuristic disabled but %d items shed", off.Account.Events[metrics.ShedItem])
	}
	if on.Account.Events[metrics.ShedItem] == 0 {
		t.Fatal("heuristic enabled but nothing shed under bursty NQ load")
	}
	if on.MeanResponse >= off.MeanResponse {
		t.Errorf("shedding did not improve response: %.3f vs %.3f",
			on.MeanResponse, off.MeanResponse)
	}
}

// Coherence strategies (§2's argument for pull-based leases): invalidation
// reports achieve lower error rates while everyone is connected (staleness
// bounded by the report interval), but a client that sleeps through more
// than a report window cannot tell which copies went stale and must
// revalidate all of them. Lease clients never need to.
func TestShapeLeaseVsInvalidationReport(t *testing.T) {
	run := func(strategy coherence.Strategy, disconnected int) Result {
		cfg := shapeCfg()
		cfg.Granularity = core.HybridCaching
		cfg.UpdateProb = 0.3
		cfg.Coherence = strategy
		cfg.DisconnectedClients = disconnected
		cfg.DisconnectHours = 6
		return Run(cfg)
	}
	// Connected: reports bound staleness tighter than leases.
	leaseConn := run(coherence.LeaseStrategy, 0)
	irConn := run(coherence.IRBroadcastStrategy, 0)
	if irConn.ErrorRate >= leaseConn.ErrorRate {
		t.Errorf("connected: irb err %.4f >= lease err %.4f",
			irConn.ErrorRate, leaseConn.ErrorRate)
	}
	if irConn.ForcedRevals != 0 {
		t.Errorf("connected irb run force-revalidated %d times", irConn.ForcedRevals)
	}
	// Disconnected: irb clients outlive the report window and must
	// revalidate everything they hold; lease clients never do.
	leaseDisc := run(coherence.LeaseStrategy, 4)
	irDisc := run(coherence.IRBroadcastStrategy, 4)
	if leaseDisc.ForcedRevals != 0 {
		t.Errorf("lease coherence force-revalidated %d times", leaseDisc.ForcedRevals)
	}
	if irDisc.ForcedRevals == 0 {
		t.Error("disconnected irb clients never force-revalidated")
	}
}

// All experiment generators produce well-formed reports at micro scale.
func TestAllExperimentGenerators(t *testing.T) {
	base := Config{
		Seed:       3,
		NumObjects: 200,
		NumClients: 2,
		Days:       0.05,
	}
	cases := []struct {
		name   string
		run    func() *Report
		tables int
		rows   int // rows per table
	}{
		{"exp1", func() *Report { return Exp1(base) }, 8, 4},
		{"exp2", func() *Report { return Exp2(base) }, 4, 6},
		{"exp3", func() *Report { return Exp3(base) }, 8, 6},
		{"exp4", func() *Report { return Exp4(base) }, 3, 4},
		{"exp4-cyclic", func() *Report { return Exp4Cyclic(base) }, 1, 4},
		{"exp5", func() *Report { return Exp5(base) }, 3, 9},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rep := c.run()
			if len(rep.Tables) != c.tables {
				t.Fatalf("%d tables, want %d", len(rep.Tables), c.tables)
			}
			for _, tbl := range rep.Tables {
				if len(tbl.Rows) != c.rows {
					t.Fatalf("table %q has %d rows, want %d", tbl.Title, len(tbl.Rows), c.rows)
				}
				if tbl.Title == "" || len(tbl.Header) == 0 {
					t.Fatalf("table missing title/header")
				}
			}
			for _, res := range rep.Results {
				if res.QueriesIssued == 0 {
					t.Fatalf("run %s issued no queries", res.Config)
				}
			}
			if rep.String() == "" {
				t.Fatal("empty report text")
			}
		})
	}
}

// Hourly profile: Bursty runs concentrate load in the burst hours.
func TestHourlyProfileBursty(t *testing.T) {
	cfg := shapeCfg()
	cfg.Granularity = core.HybridCaching
	cfg.Arrival = BurstyArrival
	cfg.Days = 1
	res := Run(cfg)
	_, hourly := res.Account.HourlyResponse()
	burst := hourly[8] // inside 07:00-10:00
	quiet := hourly[3] // overnight
	if burst <= 5*quiet {
		t.Fatalf("burst hour %d queries vs quiet %d — no clustering", burst, quiet)
	}
	var total uint64
	for _, n := range hourly {
		total += n
	}
	if total != res.QueriesIssued {
		t.Fatalf("hourly counts %d != issued %d", total, res.QueriesIssued)
	}
}

// Energy (§2's motivation): OC's blind prefetching costs more radio energy
// per query than AC; HC sits in between; NC is the most expensive of all
// (it ships whole objects with almost no cache to absorb them).
func TestShapeEnergyByGranularity(t *testing.T) {
	energy := map[core.Granularity]float64{}
	for _, g := range core.Granularities() {
		res := runG(t, g, nil)
		energy[g] = res.Account.EnergyPerQuery()
	}
	if energy[core.ObjectCaching] <= energy[core.AttributeCaching] {
		t.Errorf("OC energy %.3f <= AC energy %.3f", energy[core.ObjectCaching], energy[core.AttributeCaching])
	}
	if !(energy[core.HybridCaching] > energy[core.AttributeCaching] &&
		energy[core.HybridCaching] < energy[core.ObjectCaching]) {
		t.Errorf("HC energy %.3f not between AC %.3f and OC %.3f",
			energy[core.HybridCaching], energy[core.AttributeCaching], energy[core.ObjectCaching])
	}
	if energy[core.NoCache] <= energy[core.ObjectCaching] {
		t.Errorf("NC energy %.3f <= OC energy %.3f", energy[core.NoCache], energy[core.ObjectCaching])
	}
}

// Broadcast dissemination (§1's framing): with a shared interest pool on
// the air, covered reads move off the point-to-point channels — downlink
// load drops and common-item reads no longer depend on the pull path.
func TestShapeBroadcastOffloadsDownlink(t *testing.T) {
	run := func(broadcastAttrs int) Result {
		cfg := shapeCfg()
		cfg.Granularity = core.HybridCaching
		cfg.UpdateProb = 0.1
		cfg.SharedHotObjects = 50
		cfg.SharedHotProb = 0.6
		cfg.BroadcastAttrs = broadcastAttrs
		return Run(cfg)
	}
	off := run(0)
	on := run(3)
	if off.Account.Air != 0 {
		t.Fatalf("broadcast disabled but %d reads from the air", off.Account.Air)
	}
	if on.Account.Air == 0 {
		t.Fatal("broadcast enabled but no reads from the air")
	}
	if on.DownlinkUtilization >= off.DownlinkUtilization {
		t.Errorf("downlink not offloaded: %.3f vs %.3f",
			on.DownlinkUtilization, off.DownlinkUtilization)
	}
}

// TightCIs reports whether every metric's 95% CI half-width is within the
// given relative fraction of its mean (the paper's "very tight confidence
// intervals" check).
func (r *Replicated) TightCIs(relative float64) bool {
	check := func(s *stats.Summary) bool {
		m := s.Mean()
		if m == 0 {
			return s.CI95() == 0
		}
		return s.CI95() <= relative*m
	}
	return check(&r.HitRatio) && check(&r.MeanResponse) && check(&r.ErrorRate)
}

// Replication: independent seeds agree closely — the paper's "very tight
// confidence intervals" observation — and the aggregation is correct.
func TestReplicateTightCIs(t *testing.T) {
	cfg := shapeCfg()
	cfg.Granularity = core.HybridCaching
	cfg.UpdateProb = 0.1
	rep := Replicate(cfg, 4)
	if rep.Replicas != 4 || len(rep.Results) != 4 {
		t.Fatalf("replicas = %d/%d", rep.Replicas, len(rep.Results))
	}
	if rep.HitRatio.Count() != 4 {
		t.Fatal("metrics not aggregated")
	}
	// 15% relative half-width is generous; the observed spread is ~2-3%.
	if !rep.TightCIs(0.15) {
		t.Errorf("CIs not tight: %s", rep)
	}
	// Seeds genuinely differ.
	if rep.Results[0].HitRatio == rep.Results[1].HitRatio {
		t.Error("different seeds produced identical hit ratios")
	}
	if rep.String() == "" {
		t.Error("empty String")
	}
}

func TestReplicateValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Replicate(cfg, 0) did not panic")
		}
	}()
	Replicate(shapeCfg(), 0)
}

// Belady headroom: the clairvoyant bound dominates every measured hit
// ratio for the same configuration and sits below 100%.
func TestShapeOptimalBoundDominates(t *testing.T) {
	cfg := shapeCfg()
	cfg.Granularity = core.HybridCaching
	cfg.UpdateProb = 0 // the bound ignores coherence; compare read-only
	bound := OptimalBound(cfg)
	if bound <= 0 || bound >= 1 {
		t.Fatalf("bound = %v", bound)
	}
	for _, pol := range []string{"lru", "ewma-0.5", "mean", "mru"} {
		run := cfg
		run.Policy = pol
		res := Run(run)
		if res.HitRatio > bound {
			t.Errorf("%s hit %.3f exceeds clairvoyant bound %.3f", pol, res.HitRatio, bound)
		}
	}
}

func TestOptimalBoundValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OptimalBound under NC did not panic")
		}
	}()
	cfg := shapeCfg()
	cfg.Granularity = core.NoCache
	OptimalBound(cfg)
}

// The invalidation-report broadcaster pays for its reports on its own
// broadcast downlink: with updates flowing, an irb run pushes a report
// every period plus its airtime, naming written items, while a lease run
// of the same workload pushes none and errs more.
func TestIRBroadcasterUsesDownlink(t *testing.T) {
	run := func(strategy coherence.Strategy) Result {
		cfg := shapeCfg()
		cfg.Granularity = core.HybridCaching
		cfg.UpdateProb = 0.3
		cfg.Coherence = strategy
		return Run(cfg)
	}
	lease := run(coherence.LeaseStrategy)
	ir := run(coherence.IRBroadcastStrategy)
	if ir.QueriesIssued == 0 || lease.QueriesIssued == 0 {
		t.Fatal("no queries issued")
	}
	if lease.IRReports != 0 || lease.IRReportBytes != 0 {
		t.Fatalf("lease run broadcast %d reports (%d bytes)", lease.IRReports, lease.IRReportBytes)
	}
	periods := uint64(shapeCfg().Horizon() / coherence.DefaultReportInterval)
	if ir.IRReports < periods/2 || ir.IRReports > periods {
		t.Fatalf("irb run broadcast %d reports over %d report periods", ir.IRReports, periods)
	}
	if empty := ir.IRReports * uint64(broadcast.ReportBytes(0)); ir.IRReportBytes <= empty {
		t.Fatalf("irb reports carried %d bytes, no more than %d empty frames", ir.IRReportBytes, empty)
	}
	if ir.ErrorRate >= lease.ErrorRate {
		t.Errorf("irb err %.4f >= lease err %.4f with %gs reports", ir.ErrorRate, lease.ErrorRate,
			coherence.DefaultReportInterval)
	}
}
