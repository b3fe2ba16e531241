// ATIS: the paper's motivating Advanced Traveler Information System (§3.1)
// — tourists on wireless portables querying accommodation data — built
// directly against the library's lower-level API (kernel, server, channels,
// clients) rather than the experiment harness, to show how the pieces
// compose.
//
// A group of tourists repeatedly queries "places to stay with vacancies";
// hotels update their vacancy attribute as rooms are booked. The example
// compares the three caching granularities on that workload.
//
//	go run ./examples/atis
package main

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/oodb"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	numHotels   = 1200 // Places-to-Stay objects at the server
	numTourists = 6
	simDays     = 1.0
	bookingProb = 0.25 // vacancy updates are frequent in high season
)

func main() {
	fmt.Printf("ATIS: %d tourists querying %d hotels over shared 19.2 Kbps channels\n",
		numTourists, numHotels)
	fmt.Printf("vacancy update probability %.2f, %g simulated day(s)\n\n",
		bookingProb, simDays)

	fmt.Printf("%-12s  %8s  %10s  %8s  %12s\n",
		"granularity", "hit %", "resp (s)", "err %", "bytes down")
	for _, g := range []core.Granularity{
		core.NoCache, core.AttributeCaching, core.ObjectCaching, core.HybridCaching,
	} {
		hit, resp, errRate, bytes := runATIS(g)
		fmt.Printf("%-12s  %8.1f  %10.3f  %8.2f  %12d\n",
			g, 100*hit, resp, 100*errRate, bytes)
	}
	fmt.Println("\nHybrid caching keeps the hit ratio of object caching at the")
	fmt.Println("response time of attribute caching — Figure 2 of the paper.")
}

// runATIS assembles one simulation by hand and returns its headline
// numbers plus downlink traffic.
func runATIS(g core.Granularity) (hit, resp, errRate float64, downBytes uint64) {
	const seed = 7
	k := sim.NewKernel()
	db := oodb.New(oodb.Config{NumObjects: numHotels, RelSeed: seed})
	srv := server.New(server.Config{
		Kernel:     k,
		DB:         db,
		UpdateProb: bookingProb,
		Seed:       seed,
	})
	up := network.NewChannel(k, "uplink", network.WirelessBandwidthBps)
	down := network.NewChannel(k, "downlink", network.WirelessBandwidthBps)

	horizon := simDays * workload.SecondsPerDay
	clientMetrics := make([]*metrics.Client, numTourists)
	scratch := new(core.Scratch) // the tourists all run on one kernel
	for i := 0; i < numTourists; i++ {
		// Each tourist has their own neighbourhood of favourite hotels
		// (per-client skewed heat) and queries name/city/vacancy-style
		// attribute subsets of the qualifying hotels.
		heat := workload.NewSkewedHeat(numHotels, rng.Derive(seed, uint64(i)).Uint64())
		gen := workload.NewQueryGen(workload.QueryGenConfig{
			Kind:        workload.Associative,
			Heat:        heat,
			DB:          db,
			Selectivity: 12, // hotels matching "vacancy > 0" per query
			AttrsPerObj: 3,  // name, city, vacancy
		})
		m := &metrics.Client{}
		clientMetrics[i] = m

		var pol replacement.Policy
		if g != core.NoCache {
			pol = replacement.NewEWMA(replacement.DefaultEWMAAlpha)
		}
		tourist := client.New(client.Config{
			ID:          i,
			Kernel:      k,
			Server:      srv,
			Up:          up,
			Down:        down,
			Granularity: g,
			Policy:      pol,
			// A portable's storage cache: room for 15% of the database.
			StorageBytes: numHotels * core.ItemCost(oodb.ObjectItem(0)) * 15 / 100,
			Gen:          gen,
			Arrival:      workload.NewPoisson(0.02), // eager tourists
			Metrics:      m,
			Scratch:      scratch,
			Seed:         rng.Derive(seed, 100+uint64(i)).Uint64(),
			Horizon:      horizon,
		})
		tourist.Start()
	}

	k.RunAll()
	k.Drain()

	var pool metrics.Account
	for _, m := range clientMetrics {
		pool.Add(&m.Account)
	}
	return pool.HitRatio(), pool.MeanResponse(), pool.ErrorRate(), down.BytesSent()
}
