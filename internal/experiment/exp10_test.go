package experiment

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/metrics"
)

// TestExp10ParallelInvariance pins the determinism guarantee for the new
// coherence schemes: identical rendered tables with 1 worker and with 8.
func TestExp10ParallelInvariance(t *testing.T) {
	base := Config{Seed: 4, NumObjects: 400, Days: 0.02}
	prev := SetDefaultWorkers(1)
	defer SetDefaultWorkers(prev)
	s := exp10(base, []float64{0, 0.2}, [][2]int{{8, 2}})
	SetDefaultWorkers(8)
	p := exp10(base, []float64{0, 0.2}, [][2]int{{8, 2}})
	if s.String() != p.String() {
		t.Fatalf("Exp10 tables differ:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
}

// TestIRBroadcastMissedUnderBursts is the missed-report edge case: a
// Gilbert–Elliott outage regime whose mean bad period (400 s) exceeds the
// IR window (default 5 x 60 s) makes clients miss enough consecutive
// reports that incremental reconciliation becomes unsound, forcing whole-
// cache revalidation. The forced-revalidation path must actually fire (the
// golden case irb-burst-outages pins the run's fingerprint).
func TestIRBroadcastMissedUnderBursts(t *testing.T) {
	cfg := Config{
		Seed: 9, Days: 0.2, NumClients: 6,
		Granularity: core.ObjectCaching, UpdateProb: 0.5,
		Coherence:     coherence.IRBroadcastStrategy,
		BurstFraction: 0.3, MeanBadSeconds: 400,
	}
	res := Run(cfg)
	if res.IRReports == 0 {
		t.Fatal("no invalidation reports were broadcast")
	}
	if res.IRReportBytes == 0 {
		t.Fatal("reports were broadcast but no air bytes accounted")
	}
	if res.Account.Events[metrics.IRMiss] == 0 {
		t.Fatal("burst outages dropped no report receptions — the edge case did not occur")
	}
	if res.ForcedRevals == 0 {
		t.Fatal("reports were missed past the IR window but no cache was force-revalidated")
	}
}

// TestCooperativeAccounting sanity-checks the peer-hit bookkeeping on a
// plain run: cooperation must serve some reads from peers (each counted
// once, as a metrics.FromPeer outcome: an access that is not a hit), and
// disabling cooperation must zero the counters.
func TestCooperativeAccounting(t *testing.T) {
	cfg := Config{
		Seed: 5, Days: 0.1, NumClients: 8,
		Granularity: core.HybridCaching, UpdateProb: 0.2,
		CoopPeers: 3,
	}
	res := Run(cfg)
	if res.PeerHits == 0 {
		t.Fatal("cooperative run served no reads from peers")
	}
	if res.PeerMisses == 0 {
		t.Fatal("cooperative run had no fall-through reads; scenario too easy to be a test")
	}
	off := cfg
	off.CoopPeers = 0
	resOff := Run(off)
	if resOff.PeerHits != 0 || resOff.PeerMisses != 0 {
		t.Fatalf("cooperation disabled but counters nonzero: hits=%d misses=%d",
			resOff.PeerHits, resOff.PeerMisses)
	}
}
