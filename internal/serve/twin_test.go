package serve

import (
	"fmt"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestTwinExactSequence drives the simulated client and the live store from
// one workload stream on one clock and requires the identical per-query
// outcome sequence: each live read is classified and counted as the
// simulated client counts its own (metrics.Classify, ReadCounts.Count), and
// every query's read count and outcome counts must match.
// The simulator runs first; the live side replays its probe instant (the arrival, or the previous completion for a query that
// queued behind it) and its install instant (the completion) from the trace,
// so the only things left to differ are the order in which probes and
// installs touch the two cache levels and what an install grants.
//
// Updates are off and leases are the fixed duration: the simulated server
// prices an adaptive lease when it assembles the reply and the client starts
// it one downlink transfer later, where the live store does both at one
// instant, so an adaptive lease differs by that transfer time between the two
// worlds (within TestLiveReplayMatchesSimulator's bound, not within this
// test's). The storage cache and the memory buffer are sized alike so that
// copies outlive their storage slot in the buffer and every leg depends on
// the promote-on-hit order as well as on the victim order.
func TestTwinExactSequence(t *testing.T) {
	for _, gran := range []core.Granularity{core.AttributeCaching, core.ObjectCaching} {
		for _, policy := range []string{"lru", "ewma-0.5"} {
			t.Run(fmt.Sprintf("%s/%s", gran, policy), func(t *testing.T) {
				twinLeg(t, gran, policy)
			})
		}
	}
}

func twinLeg(t *testing.T, gran core.Granularity, policy string) {
	tr := &trace.Collector{}
	cfg := experiment.Defaults(experiment.Config{
		Seed:             11,
		NumClients:       1,
		NumObjects:       400,
		Days:             0.25,
		Granularity:      gran,
		Policy:           policy,
		StorageObjects:   30,
		MemBufferObjects: 30,
		Coherence:        coherence.FixedLeaseStrategy,
		FixedLease:       600,
		Tracer:           tr,
	})
	sim := experiment.Run(cfg)
	if len(tr.Records) < 200 {
		t.Fatalf("simulator completed %d queries; want >= 200", len(tr.Records))
	}

	sc, err := storeConfig(cfg)
	if err != nil {
		t.Fatalf("storeConfig: %v", err)
	}
	now := 0.0
	sc.Clock = func() float64 { return now }
	st, err := NewMemory(sc)
	if err != nil {
		t.Fatalf("NewMemory: %v", err)
	}

	w := experiment.NewClientWorkload(cfg, sc.DB, 0)
	var q workload.Query
	var need []workload.ReadOp
	var pooled metrics.ReadCounts // every live read; the run has no warm-up
	scheduled, completed := 0.0, 0.0
	for i, rec := range tr.Records {
		scheduled = w.Arrival.Next(w.Stream, scheduled)
		w.Gen.NextInto(w.Stream, &q)
		if scheduled != rec.IssuedAt || q.Index != rec.Index {
			t.Fatalf("query %d: replayed (index %d, issued %v), simulator (index %d, issued %v)",
				i, q.Index, scheduled, rec.Index, rec.IssuedAt)
		}
		now = max(rec.IssuedAt, completed)
		// The live query's record, counted the way the simulated client
		// counts its own: one Classify and one Count per read.
		live := trace.QueryRecord{Reads: len(q.Reads)}
		need = need[:0]
		for _, rd := range q.Reads {
			res, err := st.Read(0, rd.OID, rd.Attr, ModeProbe)
			if err != nil {
				t.Fatalf("query %d: probe: %v", i, err)
			}
			o, fetch := metrics.Classify(res.State, true)
			if fetch {
				need = append(need, rd)
				continue
			}
			o.Error = res.Error
			live.Count(o)
		}
		completed = rec.CompletedAt
		now = completed
		if len(need) > 0 {
			if _, err := st.Fetch(0, need); err != nil {
				t.Fatalf("query %d: fetch: %v", i, err)
			}
			for range need {
				live.Count(metrics.Outcome{Kind: metrics.Fetched})
			}
		}
		if live.Reads != rec.Reads || live.ReadCounts != rec.ReadCounts {
			t.Fatalf("query %d diverged: live %d reads %+v, simulator %d reads %+v",
				i, live.Reads, live.ReadCounts, rec.Reads, rec.ReadCounts)
		}
		pooled.Add(live.ReadCounts)
	}
	if pooled != sim.Account.ReadCounts {
		t.Fatalf("live reads pool to %+v; the simulator's account holds %+v", pooled, sim.Account.ReadCounts)
	}
	stats := st.Stats()
	if stats.Evictions == 0 || stats.Hits == 0 || stats.Stales == 0 {
		t.Fatalf("over %d queries: %d evictions, %d hits, %d expired copies; the run must exercise all three",
			len(tr.Records), stats.Evictions, stats.Hits, stats.Stales)
	}
}

// storeConfig maps a (defaulted) simulation config onto the live store: the
// same granularity, policy, cache budgets, lease parameters, and — through
// experiment.NewDatabase — the same relationship topology, so a service
// booted from the same seed agrees with every replayed client on where
// navigational queries lead.
func storeConfig(cfg experiment.Config) (Config, error) {
	cfg = experiment.Defaults(cfg)
	if err := ValidateLive(cfg); err != nil {
		return Config{}, err
	}
	sc := Config{
		Granularity:      cfg.Granularity,
		Policy:           cfg.Policy,
		NumObjects:       cfg.NumObjects,
		StorageObjects:   cfg.StorageObjects,
		MemBufferObjects: cfg.MemBufferObjects,
		Beta:             cfg.Beta,
		DB:               experiment.NewDatabase(cfg),
	}
	if cfg.Coherence == coherence.FixedLeaseStrategy {
		sc.FixedLease = cfg.FixedLease
		if sc.FixedLease == 0 {
			sc.FixedLease = coherence.DefaultFixedLease
		}
	}
	return sc, nil
}
