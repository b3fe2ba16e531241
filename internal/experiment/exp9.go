package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// exp9DefaultDays is the million-client sweep's horizon when the base
// config leaves Days unset: ~14 simulated minutes gives every client a
// handful of Poisson arrivals (0.01/s) without making the 1M-client point
// take hours of wall clock.
const exp9DefaultDays = 0.01

// Thin-client sizing for the fleet sweep. Per-client live state is
// dominated by the storage cache (objects x ~12 attribute entries of LRU +
// policy-slot + coherence bookkeeping, ~1.4 KB per cached object measured)
// plus the per-object workload heat vector. At the paper's ratios a
// million clients would need ~145 GB; capping the database at 500 objects
// and the client caches at 10 storage + 4 memory-buffer objects keeps the
// fleet within one box (a fleet holds only the cells it is running: ~4 GB
// at 10^6 clients on two workers, EXPERIMENTS.md #9) while preserving the
// structure under study — per-cell channel contention, backbone relaying,
// and cache coherence. The price is a storage cache covering 2% of the
// database instead of the paper's 20%, so hit ratios sit well below the
// single-cell experiments; EXPERIMENTS.md #9 records the deviation.
const (
	exp9ThinObjects        = 500
	exp9ThinStorageObjects = 10
	exp9ThinMemBufObjects  = 4
)

// Exp9 — beyond the paper: million-client fleets. One panel: fleet size
// sweep {10k, 100k, 1M}. The engine holds one inline state machine per
// client — a few dozen bytes of suspended state, no goroutine stack — which
// is what makes the 1M point a batch job on one box.
//
// Wall-clock throughput is intentionally not a table column (same policy
// as Exp8): tables carry only deterministic quantities, and mcsim reports
// events/sec separately from the measured wall time.
func Exp9(base Config) *Report {
	return exp9(base, []int{10_000, 100_000, 1_000_000}, 64)
}

// Exp9Quick runs a sparser sweep (10k clients, 16 cells at most) for
// time-constrained sweeps and the CI smoke.
func Exp9Quick(base Config) *Report {
	return exp9(base, []int{1_000, 10_000}, 16)
}

func exp9(base Config, fleets []int, cells int) *Report {
	rep := &Report{Name: "exp9"}
	if base.Days == 0 {
		base.Days = exp9DefaultDays
	}
	prep := func(c *Config) {
		c.Granularity = core.HybridCaching
		c.QueryKind = workload.Associative
		if c.UpdateProb == 0 {
			c.UpdateProb = 0.1
		}
		if c.NumObjects == 0 {
			c.NumObjects = exp9ThinObjects
		}
		if c.StorageObjects == 0 {
			c.StorageObjects = exp9ThinStorageObjects
		}
		if c.MemBufferObjects == 0 {
			c.MemBufferObjects = exp9ThinMemBufObjects
		}
		c.Cells = cells
	}
	var b batch
	mb := func(bytes uint64) string { return fmt.Sprintf("%.4g", float64(bytes)/1e6) }
	millions := func(n uint64) string { return fmt.Sprintf("%.4g", float64(n)/1e6) }

	// The title keeps the engine's historical name ("SM"): archived
	// manifests pin it.
	tbl := NewTable(
		fmt.Sprintf("Experiment #9 — fleet size on the SM engine (%d cells, HC)", cells),
		"clients", "hit %", "resp (s)", "err %", "backbone MB", "events (M)")
	rep.Tables = append(rep.Tables, tbl)
	for _, fleet := range fleets {
		fleet := fleet
		cfg := merge(base, func(c *Config) {
			prep(c)
			c.Label = fmt.Sprintf("exp9/fleet=%d", fleet)
			c.NumClients = fleet
		})
		b.add(cfg, func(res Result) {
			tbl.Add(fmt.Sprint(fleet), pct(res.HitRatio), secs(res.MeanResponse),
				pct(res.ErrorRate), mb(res.BackboneBytes), millions(res.Events))
		})
	}
	b.collect(rep)
	return rep
}
