// Coherence: the three strategies side by side — the paper's adaptive
// per-item leases (§3.2), the original fixed-duration Leases scheme [7],
// and the broadcast invalidation reports [2] that §2 argues cannot survive
// disconnection.
//
// The run sweeps the fixed lease length to show §2's point that no single
// duration works ("it is difficult to determine an appropriate refresh
// duration"), then disconnects some clients to show the invalidation
// reports' failure mode: a client back from an outage longer than the
// report window has missed writes it cannot name, and must revalidate
// everything it cached.
//
// Each case copies one base experiment.Config and sets its own fields;
// every field is documented on Config (see docs/API.md).
//
//	go run ./examples/coherence
package main

import (
	"fmt"
	"log"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/workload"
)

func main() {
	base := experiment.Config{
		Seed:        21,
		Days:        1,
		Granularity: core.HybridCaching,
		Policy:      "ewma-0.5",
		QueryKind:   workload.Associative,
		Heat:        experiment.SkewedHeat,
		UpdateProb:  0.3, // write-heavy enough for coherence to matter
	}
	run := func(cfg experiment.Config) experiment.Result {
		if err := cfg.Validate(); err != nil {
			log.Fatal(err)
		}
		return experiment.Run(cfg)
	}

	fmt.Println("== picking a lease duration (all clients connected, U=0.3) ==")
	fmt.Printf("%-16s  %8s  %8s\n", "strategy", "hit %", "err %")
	show := func(name string, res experiment.Result) {
		fmt.Printf("%-16s  %8.1f  %8.2f\n", name, 100*res.HitRatio, 100*res.ErrorRate)
	}
	show("adaptive RT", run(base))
	for _, lease := range []float64{60, 600, 6000} {
		cfg := base
		cfg.Coherence, cfg.FixedLease = coherence.FixedLeaseStrategy, lease
		show(fmt.Sprintf("fixed %gs", lease), run(cfg))
	}
	fmt.Println("\nshort fixed leases kill the hit ratio; long ones leak errors.")
	fmt.Println("the adaptive estimate tracks each item's own write rate.")

	fmt.Println("\n== disconnection (4 of 10 clients offline 6h/day) ==")
	fmt.Printf("%-20s  %8s  %8s  %14s\n", "strategy", "hit %", "err %", "forced revals")
	for _, c := range []struct {
		name  string
		strat coherence.Strategy
	}{
		{"adaptive leases", coherence.LeaseStrategy},
		{"invalidation rpts", coherence.IRBroadcastStrategy},
	} {
		cfg := base
		cfg.Coherence = c.strat
		cfg.DisconnectedClients, cfg.DisconnectHours = 4, 6
		res := run(cfg)
		fmt.Printf("%-20s  %8.1f  %8.2f  %14d\n",
			c.name, 100*res.HitRatio, 100*res.ErrorRate, res.ForcedRevals)
	}
	fmt.Println("\na client that misses reports cannot trust anything it cached —")
	fmt.Println("leases need no channel at all, which is why the paper pulls.")
}
