package experiment

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/workload"
)

// exp11DefaultDays is the size-sweep horizon when the base config leaves
// Days unset: a quarter day gives each client ~200 queries — enough
// buffer-miss traffic to populate the persistent tier at every database
// size without letting the 1M-object runs dominate exp-all wall clock.
const exp11DefaultDays = 0.25

// exp11QuickDays is the -quick horizon, sized for the CI smoke.
const exp11QuickDays = 0.05

// Exp11 — beyond the paper: database size x server buffer with a real
// persistent tier behind the buffer pool. The paper fixes the database at
// 2000 objects and the server buffer at 25%; this experiment scales the
// database to 1M objects while holding buffer pressure constant via
// WithBufferRatio-style ratios, and stages every buffer miss through the
// log-structured storage engine (internal/storage). Two panels:
//
//  1. size x buffer ratio under lazy leases — how hit ratio, response
//     time, and server disk traffic move as the database outgrows both
//     the client caches and the server buffer;
//  2. coherence at scale — leases vs broadcast invalidation reports
//     across database sizes at a fixed 5% buffer.
//
// Simulated timing still charges the modeled disk constants, so every
// table is byte-deterministic across machines, sync modes, and -parallel
// widths; the tier's wall-clock latencies and on-disk footprint are real
// measurements and ride along as report notes, outside the table hashes.
// Without a base StorageDSN the sweep stages through a throwaway
// file:...?sync=none tier under the system temp directory.
func Exp11(base Config) *Report {
	if base.Days == 0 {
		base.Days = exp11DefaultDays
	}
	return exp11(base,
		[]int{10_000, 100_000, 1_000_000},
		[]float64{0.01, 0.05, 0.25},
		coherenceSchemes()[:2], true)
}

// Exp11Quick runs a sparser grid (two small sizes, two ratios, leases
// only) for time-constrained sweeps and the CI smoke. Quick mode never
// opens a file tier — the grids exist to be fast and hermetic — so the
// tier columns read "-"; `mcsim exp 11 -quick -storage ...` is rejected
// as a conflict before it gets here.
func Exp11Quick(base Config) *Report {
	if base.Days == 0 {
		base.Days = exp11QuickDays
	}
	base.StorageDSN = ""
	return exp11(base,
		[]int{2000, 10_000},
		[]float64{0.05, 0.25},
		coherenceSchemes()[:1], false)
}

func exp11(base Config, sizes []int, ratios []float64, schemes []coherenceScheme, withTier bool) *Report {
	rep := &Report{Name: "exp11"}

	// One tier root serves the whole sweep: Run gives every config its own
	// cold subdirectory keyed by label and seed, so parallel runs never
	// share a log. A caller-supplied DSN (mcsim exp 11 -storage ...) is
	// kept — and kept on disk; the auto temp tier is torn down after.
	tierDSN := base.StorageDSN
	if withTier && tierDSN == "" {
		dir, err := os.MkdirTemp("", "mcsim-exp11-")
		if err != nil {
			panic(fmt.Sprintf("experiment: exp11 tier: %v", err))
		}
		defer os.RemoveAll(dir)
		tierDSN = "file:" + dir + "?sync=none"
	}
	if !withTier {
		tierDSN = ""
	}

	prep := func(c *Config) {
		c.Granularity = core.HybridCaching
		c.QueryKind = workload.Associative
		if c.UpdateProb == 0 {
			c.UpdateProb = 0.1
		}
		c.StorageDSN = tierDSN
	}
	tierCell := func(res Result, v uint64) string {
		if res.StorageTier.DSN == "" {
			return "-"
		}
		return fmt.Sprint(v)
	}
	note := func(res Result) {
		t := res.StorageTier
		if t.DSN == "" {
			return
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s: storage get p50/p99 %.3g/%.3g ms, put p50/p99 %.3g/%.3g ms over %d gets, %d puts; %d keys, %d bytes on disk (measured)",
			res.Config, t.GetP50ms, t.GetP99ms, t.PutP50ms, t.PutP99ms,
			t.Gets, t.Puts, t.Keys, t.DiskBytes))
	}

	// Panel 1: size x buffer ratio under the lease baseline. The ratio
	// holds buffer pressure constant as the database scales, so the rows
	// isolate what sheer size does to locality.
	tblS := NewTable(
		"Experiment #11 — database size x server buffer ratio (HC, lease)",
		"objects", "buf %", "hit %", "resp (s)", "err %", "srv buf hit %",
		"disk reads", "tier gets", "tier puts")
	rep.Tables = append(rep.Tables, tblS)
	var b batch
	for _, size := range sizes {
		for _, ratio := range ratios {
			size, ratio := size, ratio
			cfg := merge(base, func(c *Config) {
				prep(c)
				c.Label = fmt.Sprintf("exp11/size=%d/buf=%g", size, ratio)
				c.NumObjects = size
				c.ServerBufferRatio = ratio
			})
			b.add(cfg, func(res Result) {
				tblS.Add(fmt.Sprint(size), pct(ratio), pct(res.HitRatio),
					secs(res.MeanResponse), pct(res.ErrorRate),
					pct(res.Server.BufferHitRatio), fmt.Sprint(res.Server.DiskReads),
					tierCell(res, res.StorageTier.Gets), tierCell(res, res.StorageTier.Puts))
				note(res)
			})
		}
	}

	// Panel 2: coherence at scale, 5% buffer. Broadcast IR names updated
	// items on the downlink; at large sizes the report traffic competes
	// with the misses the small buffer already amplifies.
	if len(schemes) > 1 {
		const ratio = 0.05
		tblC := NewTable(
			"Experiment #11 — coherence across database sizes (HC, 5% buffer)",
			"scheme", "objects", "hit %", "resp (s)", "err %", "srv buf hit %", "disk reads")
		rep.Tables = append(rep.Tables, tblC)
		for _, sch := range schemes {
			for _, size := range sizes {
				sch, size := sch, size
				cfg := merge(base, func(c *Config) {
					prep(c)
					sch.apply(c)
					c.Label = fmt.Sprintf("exp11/%s/size=%d", sch.name, size)
					c.NumObjects = size
					c.ServerBufferRatio = ratio
				})
				b.add(cfg, func(res Result) {
					tblC.Add(sch.name, fmt.Sprint(size), pct(res.HitRatio),
						secs(res.MeanResponse), pct(res.ErrorRate),
						pct(res.Server.BufferHitRatio), fmt.Sprint(res.Server.DiskReads))
					note(res)
				})
			}
		}
	}

	b.collect(rep)
	return rep
}
