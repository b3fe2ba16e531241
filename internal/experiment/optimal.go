package experiment

import (
	"repro/internal/core"
	"repro/internal/oodb"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/workload"
)

// OptimalBound replays each client's exact reference stream (the same
// seeded arrival and query draws Run would produce) against Belady's MIN
// and returns the clairvoyant upper bound on the storage-cache hit ratio.
//
// The bound ignores coherence (no lease expiry forces a refetch), the
// memory buffer, and network feedback, so it bounds from above what any
// replacement policy in internal/replacement can achieve for the
// configuration — the headroom metric for Experiments #2–#4.
func OptimalBound(cfg Config) float64 {
	cfg = Defaults(cfg)
	if cfg.Granularity == core.NoCache {
		panic("experiment: OptimalBound needs a storage-caching granularity")
	}
	db := NewDatabase(cfg)
	horizon := cfg.Horizon()
	itemCost := core.ItemCost(core.CoverItem(cfg.Granularity, 0, 0))
	capacity := cfg.StorageObjects * core.ItemCost(oodb.ObjectItem(0)) / itemCost
	if capacity < 1 {
		capacity = 1
	}

	totalHits, totalRefs := 0, 0
	for i := 0; i < cfg.NumClients; i++ {
		heat := buildHeat(cfg, i)
		gen := workload.NewQueryGen(workload.QueryGenConfig{
			Kind:          cfg.QueryKind,
			Heat:          heat,
			DB:            db,
			Selectivity:   cfg.Selectivity,
			AttrsPerObj:   cfg.AttrsPerObj,
			AttrSkewTheta: cfg.AttrSkewTheta,
		})
		var arrival workload.Arrival
		switch cfg.Arrival {
		case BurstyArrival:
			arrival = workload.NewDefaultBursty()
		default:
			arrival = workload.NewPoisson(cfg.PoissonRate)
		}
		// The client's reference stream, drawn exactly as client.run does:
		// alternate arrival and query draws from the same derived stream.
		rnd := rng.Derive(rng.Derive(cfg.Seed, 0xc0+uint64(i)).Uint64(), 0xc11e47+uint64(i))
		var seq []oodb.Item
		scheduled := 0.0
		for {
			scheduled = arrival.Next(rnd, scheduled)
			if scheduled >= horizon {
				break
			}
			q := gen.Next(rnd)
			for _, rd := range q.Reads {
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
