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
//     go run ./examples/fleet
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
		res := run(experiment.Config{
			Label:      fmt.Sprintf("fleet/cells=%d", cells),
			Seed:       11,
			Days:       0.25,
			NumClients: clients,
			Cells:      cells,
		})
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
		res := run(experiment.Config{
			Label:        fmt.Sprintf("fleet/relay=%d", relay),
			Seed:         11,
			Days:         0.25,
			NumClients:   clients,
			Cells:        8,
			RelayObjects: relay,
		})
		hit := "-"
		if probes := res.RelayHits + res.RelayMisses; probes > 0 {
			hit = fmt.Sprintf("%.1f", 100*float64(res.RelayHits)/float64(probes))
		}
		fmt.Printf("%10d  %12.2f  %12s\n", relay, float64(res.BackboneBytes)/1e6, hit)
	}

	// Invalid combinations fail fast with named errors — no silent
	// zero-value patching:
	err := experiment.Config{NumClients: 4, Cells: 8}.Validate()
	fmt.Printf("\nConfig{NumClients: 4, Cells: 8}: %v\n", err)
}

// run validates cfg and runs it.
func run(cfg experiment.Config) experiment.Result {
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	return experiment.Run(cfg)
}
