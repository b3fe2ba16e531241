package experiment

import (
	"testing"

	"repro/internal/core"
	"repro/internal/oodb"
	"repro/internal/replacement"
	"repro/internal/workload"
)

// OptimalBound replays each client's exact reference stream (the same
// seeded arrival and query draws Run produces, through NewClientWorkload)
// against Belady's MIN and returns the clairvoyant upper bound on the
// storage-cache hit ratio.
//
// The bound ignores coherence (no lease expiry forces a refetch), the
// memory buffer, and network feedback, so it bounds from above what any
// replacement policy in internal/replacement can achieve for the
// configuration — the headroom oracle for Experiments #2–#4.
func OptimalBound(cfg Config) float64 {
	cfg = Defaults(cfg)
	if cfg.Granularity == core.NoCache {
		panic("experiment: OptimalBound needs a storage-caching granularity")
	}
	db := NewDatabase(cfg)
	horizon := cfg.Horizon()
	itemCost := core.ItemCost(core.CoverItem(cfg.Granularity, 0, 0))
	capacity := max(cfg.StorageObjects*core.ItemCost(oodb.ObjectItem(0))/itemCost, 1)

	totalHits, totalRefs := 0, 0
	for i := 0; i < cfg.NumClients; i++ {
		w := NewClientWorkload(cfg, db, i)
		var seq []oodb.Item
		for scheduled := w.Arrival.Next(w.Stream, 0); scheduled < horizon; scheduled = w.Arrival.Next(w.Stream, scheduled) {
			for _, rd := range w.Gen.Next(w.Stream).Reads {
				seq = append(seq, core.CoverItem(cfg.Granularity, rd.OID, rd.Attr))
			}
		}
		hits, _ := replacement.OptimalHits(seq, capacity)
		totalHits += hits
		totalRefs += len(seq)
	}
	if totalRefs == 0 {
		return 0
	}
	return float64(totalHits) / float64(totalRefs)
}

// BenchmarkHeadroomOptimal reports each policy's measured hit ratio next
// to the clairvoyant Belady bound for the same reference streams — how
// much room is left on the replacement axis.
func BenchmarkHeadroomOptimal(b *testing.B) {
	cfg := Config{
		Seed:        1,
		Days:        0.25,
		QueryKind:   workload.Associative,
		Heat:        SkewedHeat,
		Granularity: core.HybridCaching,
	}
	var bound float64
	b.Run("belady-bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bound = OptimalBound(cfg)
		}
		b.ReportMetric(100*bound, "hit%")
	})
	for _, pol := range []string{"ewma-0.5", "lru", "mean"} {
		b.Run(pol, func(b *testing.B) {
			run := cfg
			run.Policy = pol
			var res Result
			for i := 0; i < b.N; i++ {
				res = Run(run)
			}
			b.ReportMetric(100*res.HitRatio, "hit%")
		})
	}
}
