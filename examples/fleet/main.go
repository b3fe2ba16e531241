// Fleet: scale the paper's 10-client cell out to a metropolitan fleet
// (Experiment #8 and docs/API.md). One thousand clients share a single
// 19.2 Kbps downlink pair in the paper's topology; a multi-cell run
// shards them across cells, each owning a partition of the database, its
// own channel pair, and a contact server that relays cross-partition
// reads over a wired backbone.
//
// The example shows the two headline effects:
//
//   - sharding relieves the saturated downlink (response time collapses
//     as cells are added while the workload stays identical);
//
//   - the contact servers' relay cache absorbs repeated remote reads,
//     cutting backbone traffic without touching client behaviour.
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"log"

	"repro/internal/experiment"
)

func main() {
	const clients = 100

	fmt.Printf("%d clients, HC granularity, EWMA-0.5, 0.25 simulated days\n\n", clients)
	fmt.Printf("%5s  %8s  %10s  %8s  %12s\n",
		"cells", "hit %", "resp (s)", "err %", "backbone MB")
	for _, cells := range []int{1, 2, 4, 8} {
		sc, err := experiment.New(
			experiment.WithLabel(fmt.Sprintf("fleet/cells=%d", cells)),
			experiment.WithSeed(11),
			experiment.WithHorizonDays(0.25),
			experiment.WithClients(clients),
			experiment.WithCells(cells),
		)
		if err != nil {
			log.Fatal(err)
		}
		res := sc.Run()
		fmt.Printf("%5d  %8.1f  %10.3f  %8.2f  %12.2f\n",
			cells, 100*res.HitRatio, res.MeanResponse,
			100*res.ErrorRate, float64(res.BackboneBytes)/1e6)
	}
	fmt.Println("\none cell is the paper's system: every query queues behind one")
	fmt.Println("19.2 Kbps downlink. Cells shard clients AND spectrum; the database")
	fmt.Println("partition moves the contention to the (fast) wired backbone.")

	fmt.Println("\n== relay cache on the widest fleet ==")
	fmt.Printf("%10s  %12s  %12s\n", "relay objs", "backbone MB", "relay hit %")
	for _, relay := range []int{0, 200} {
		sc, err := experiment.New(
			experiment.WithLabel(fmt.Sprintf("fleet/relay=%d", relay)),
			experiment.WithSeed(11),
			experiment.WithHorizonDays(0.25),
			experiment.WithFleet(clients, 8),
			experiment.WithRelayCache(relay),
		)
		if err != nil {
			log.Fatal(err)
		}
		res := sc.Run()
		hit := "-"
		if probes := res.RelayHits + res.RelayMisses; probes > 0 {
			hit = fmt.Sprintf("%.1f", 100*float64(res.RelayHits)/float64(probes))
		}
		fmt.Printf("%10d  %12.2f  %12s\n", relay, float64(res.BackboneBytes)/1e6, hit)
	}

	// Invalid combinations fail fast with named errors — no silent
	// zero-value patching:
	_, err := experiment.New(experiment.WithFleet(4, 8))
	fmt.Printf("\nWithFleet(4, 8): %v\n", err)
}
