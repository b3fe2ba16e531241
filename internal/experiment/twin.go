// twin.go exports the deterministic pieces of a run that live replay needs:
// the database construction and the per-client workload substreams. The live
// serving twin (internal/serve, cmd/mccached, cmd/mcload) replays the exact
// query stream a simulated client would issue, over real sockets, and diffs
// the measured ratios against the simulator's — which only works if both
// sides derive every draw from the same substream. runCell and buildClients
// use these same helpers, as does the OptimalBound test oracle, so none of
// them can drift apart.
package experiment

import (
	"fmt"

	"repro/internal/oodb"
	"repro/internal/rng"
	"repro/internal/workload"
)

// NewDatabase constructs the run's object database, the one every cell of
// Run builds: relationship topology derived from the root seed's 0xdb
// substream. A live service booted with the same seed and object count
// therefore agrees with every replayed client on which objects exist and
// where navigational queries lead. cfg should already be defaulted.
func NewDatabase(cfg Config) *oodb.Database {
	return oodb.New(oodb.Config{
		NumObjects: cfg.NumObjects,
		RelSeed:    RelSeed(cfg.Seed),
	})
}

// RelSeed derives the database relationship-topology seed from the run's
// root seed — the one derivation both the simulator and the live service
// must share for navigational queries to agree.
func RelSeed(seed uint64) uint64 {
	return rng.Derive(seed, 0xdb).Uint64()
}

// ClientWorkload bundles the deterministic workload substreams of fleet
// client i — the same query generator (over the client's private heat
// model), arrival process, and RNG stream buildClients wires into the
// simulated client. Draw order matters: the client alternates Arrival.Next
// then Gen.NextInto on Stream, so a replayer must interleave identically to
// stay in sync.
type ClientWorkload struct {
	// Gen produces the client's queries over its private heat model (hot
	// sets differ per client, §4 of the paper) and the database topology.
	Gen *workload.QueryGen
	// Arrival schedules the open-loop query stream.
	Arrival workload.Arrival
	// Stream drives both arrival and query draws — identical to the
	// simulated client's private stream.
	Stream *rng.Stream
	// UpdateStream drives the live replayer's per-object update coin. The
	// simulator flips this coin server-side from one shared stream, so the
	// exact write sequence differs between sim and live; the per-object
	// update probability — what the measured ratios depend on — is the same.
	UpdateStream *rng.Stream
}

// NewClientWorkload builds the workload substreams of fleet client i against
// db (which must come from NewDatabase with the same config). cfg must be
// defaulted (Defaults or Scenario.Config); it panics on unknown heat or
// arrival kinds, like buildClients.
func NewClientWorkload(cfg Config, db *oodb.Database, i int) ClientWorkload {
	gen := workload.NewQueryGen(workload.QueryGenConfig{
		Kind:          cfg.QueryKind,
		Heat:          buildHeat(cfg, i),
		DB:            db,
		AttrsPerObj:   cfg.AttrsPerObj,
		AttrSkewTheta: cfg.AttrSkewTheta,
	})
	var arrival workload.Arrival
	switch cfg.Arrival {
	case PoissonArrival:
		arrival = workload.NewPoisson(workload.DefaultPoissonRate)
	case BurstyArrival:
		arrival = workload.NewDefaultBursty()
	default:
		panic(fmt.Sprintf("experiment: unknown arrival kind %d", cfg.Arrival))
	}
	seed := rng.Derive(cfg.Seed, 0xc0+uint64(i)).Uint64()
	return ClientWorkload{
		Gen:          gen,
		Arrival:      arrival,
		Stream:       rng.Derive(seed, 0xc11e47+uint64(i)),
		UpdateStream: rng.Derive(seed, 0x11f0ad+uint64(i)),
	}
}
