// Quickstart: run one simulated day of the mobile caching system with the
// paper's defaults (hybrid caching, EWMA-0.5 replacement, lease-based
// coherence) and print the three §5 metrics. A run is an experiment.Config
// literal (unset fields keep the paper's Table 1 defaults), checked by
// Config.Validate — invalid combinations are rejected with named errors
// before anything runs (see docs/API.md) — and executed by experiment.Run.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/workload"
)

func main() {
	cfg := experiment.Config{
		Label:       "quickstart",
		Seed:        42,
		Days:        1,
		Granularity: core.HybridCaching,
		Policy:      "ewma-0.5",
		QueryKind:   workload.Associative,
		Heat:        experiment.SkewedHeat,
		UpdateProb:  0.1,
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("simulating 1 day: 10 mobile clients, 2000-object OODB,")
	fmt.Println("two 19.2 Kbps wireless channels, hybrid caching, EWMA-0.5...")
	res := experiment.Run(cfg)

	fmt.Printf("\n  cache hit ratio  %6.1f%%\n", 100*res.HitRatio)
	fmt.Printf("  response time    %6.3f s\n", res.MeanResponse)
	fmt.Printf("  error rate       %6.2f%%\n", 100*res.ErrorRate)
	fmt.Printf("  queries          %d\n", res.QueriesIssued)
	fmt.Printf("  downlink load    %5.1f%%\n", 100*res.DownlinkUtilization)

	// The headline of the paper: storage caching versus no caching.
	nc := cfg
	nc.Label, nc.Granularity = "quickstart-nc", core.NoCache
	if err := nc.Validate(); err != nil {
		log.Fatal(err)
	}
	base := experiment.Run(nc)
	fmt.Printf("\nwithout storage caching (NC): hit %.1f%%, response %.3fs —\n",
		100*base.HitRatio, base.MeanResponse)
	fmt.Printf("mobile caching cuts response time by %.1fx.\n",
		base.MeanResponse/res.MeanResponse)
}
