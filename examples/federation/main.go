// Federation: the multi-server extension the paper's conclusion proposes
// (§6) — the database is partitioned across several servers in different
// cells; each mobile client talks to its cell's *contact server*, which
// relays reads owned by other servers over a fixed backbone and keeps a
// lease-respecting relay cache of remote items.
//
// The example measures what the relay cache buys: clients whose interests
// spill across partitions pay two backbone hops per remote read without
// it, and almost nothing with it.
//
//	go run ./examples/federation
package main

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/oodb"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	numObjects = 2000
	numServers = 4
	perCell    = 2 // mobile clients per cell
	simDays    = 0.5
)

func main() {
	fmt.Printf("federated OODB: %d objects range-partitioned over %d servers,\n",
		numObjects, numServers)
	fmt.Printf("%d clients per cell, hybrid caching, EWMA-0.5\n\n", perCell)

	fmt.Printf("%-22s  %8s  %10s  %12s  %12s\n",
		"configuration", "hit %", "resp (s)", "relay hit%", "relayed")
	for _, relayObjects := range []int{0, 400} {
		hit, resp, relayHit, relayed := run(relayObjects)
		name := "no relay cache"
		if relayObjects > 0 {
			name = fmt.Sprintf("relay cache %d objs", relayObjects)
		}
		fmt.Printf("%-22s  %8.1f  %10.3f  %12.1f  %12d\n",
			name, 100*hit, resp, 100*relayHit, relayed)
	}
	fmt.Println("\nthe contact server \"requests and even caches items from other")
	fmt.Println("remote servers on behalf of the client\" — §6 of the paper.")
}

func run(relayObjects int) (hit, resp, relayHitRatio float64, relayed uint64) {
	const seed = 11
	k := sim.NewKernel()
	db := oodb.New(oodb.Config{NumObjects: numObjects, RelSeed: seed})
	cluster := federation.New(federation.Config{
		Kernel:            k,
		DB:                db,
		NumServers:        numServers,
		UpdateProb:        0.1,
		Seed:              seed,
		RelayCacheObjects: relayObjects,
	})

	horizon := simDays * workload.SecondsPerDay
	clientMetrics := make([]*metrics.Client, 0, numServers*perCell)
	scratch := new(core.Scratch) // every cell runs on the one kernel
	for cell := 0; cell < numServers; cell++ {
		up := network.NewChannel(k, fmt.Sprintf("up-%d", cell), network.WirelessBandwidthBps)
		down := network.NewChannel(k, fmt.Sprintf("down-%d", cell), network.WirelessBandwidthBps)
		for j := 0; j < perCell; j++ {
			id := cell*perCell + j
			// Clients in the same cell share a neighbourhood of
			// interests (one hot set per cell) that spans the whole
			// partitioned database, so most reads are remote to the
			// cell and cell-mates benefit from each other's relay
			// traffic.
			heat := workload.NewSkewedHeat(numObjects, rng.Derive(seed, uint64(cell)).Uint64())
			gen := workload.NewQueryGen(workload.QueryGenConfig{
				Kind: workload.Associative, Heat: heat, DB: db,
			})
			m := &metrics.Client{}
			clientMetrics = append(clientMetrics, m)
			cl := client.New(client.Config{
				ID:          id,
				Kernel:      k,
				Server:      cluster.Contact(cell),
				Up:          up,
				Down:        down,
				Granularity: core.HybridCaching,
				Policy:      replacement.NewEWMA(replacement.DefaultEWMAAlpha),
				Gen:         gen,
				Arrival:     workload.NewPoisson(0.01),
				Metrics:     m,
				Scratch:     scratch,
				Seed:        rng.Derive(seed, 1000+uint64(id)).Uint64(),
				Horizon:     horizon,
			})
			cl.Start()
		}
	}

	k.RunAll()
	k.Drain()

	var pool metrics.Account
	for _, m := range clientMetrics {
		pool.Add(&m.Account)
	}
	var hits, misses uint64
	for i := 0; i < numServers; i++ {
		h, m, r := cluster.RelayStats(i)
		hits += h
		misses += m
		relayed += r
	}
	if hits+misses > 0 {
		relayHitRatio = float64(hits) / float64(hits+misses)
	}
	return pool.HitRatio(), pool.MeanResponse(), relayHitRatio, relayed
}
