// Rushhour: vehicle-traffic arrivals and commuter disconnections (§4's
// Bursty pattern and Experiment #6). Queries cluster in a morning commute
// burst (07:00–10:00) and an evening rush (16:00–19:00); some commuters
// also lose connectivity for hours at a time (parking garages, tunnels,
// office partitions) and keep working from their cache.
//
// The example shows two things the paper highlights:
//
//   - the shared 19.2 Kbps downlink backlogs during bursts, inflating
//     response times exactly when demand peaks (Experiment #3);
//
//   - disconnected clients keep answering queries from expired cache
//     entries, trading availability for coherence errors (Experiment #6).
//
//     go run ./examples/rushhour
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/workload"
)

func main() {
	base := experiment.Config{
		Seed:        99,
		Days:        2,
		Granularity: core.HybridCaching,
		Policy:      "ewma-0.5",
		QueryKind:   workload.Associative,
		Heat:        experiment.SkewedHeat,
		UpdateProb:  0.1,
	}
	run := func(cfg experiment.Config) experiment.Result {
		if err := cfg.Validate(); err != nil {
			log.Fatal(err)
		}
		return experiment.Run(cfg)
	}
	bursty := base
	bursty.Arrival = experiment.BurstyArrival

	fmt.Println("== arrival patterns: steady Poisson vs commuter bursts ==")
	fmt.Printf("%-8s  %8s  %10s  %14s  %10s\n",
		"arrival", "hit %", "resp (s)", "down util %", "down wait")
	for _, a := range []experiment.ArrivalKind{
		experiment.PoissonArrival, experiment.BurstyArrival,
	} {
		cfg := base
		cfg.Arrival = a
		res := run(cfg)
		fmt.Printf("%-8s  %8.1f  %10.3f  %14.1f  %9.3fs\n",
			res.Config.Arrival, 100*res.HitRatio, res.MeanResponse,
			100*res.DownlinkUtilization, res.DownlinkMeanWait)
	}
	fmt.Println("\nsame average load — but the bursts queue up behind the downlink.")

	fmt.Println("\n== response time by hour of day (Bursty) ==")
	res := run(bursty)
	meanRT, queries := res.Account.HourlyResponse()
	for h := 0; h < 24; h += 3 {
		for hh := h; hh < h+3; hh++ {
			marker := "  "
			if (hh >= 7 && hh < 10) || (hh >= 16 && hh < 19) {
				marker = "* " // burst period
			}
			fmt.Printf("%s%02d:00 %7.2fs (%4d queries)   ", marker, hh,
				meanRT[hh], queries[hh])
		}
		fmt.Println()
	}
	fmt.Println("(* = commute burst)")

	fmt.Println("\n== commuter disconnections (Bursty arrivals, 4 of 10 offline) ==")
	fmt.Printf("%-10s  %8s  %8s  %12s\n", "outage (h)", "hit %", "err %", "unavailable")
	for _, hours := range []float64{0, 2, 5, 8} {
		cfg := bursty
		cfg.DisconnectedClients, cfg.DisconnectHours = 4, hours
		res := run(cfg)
		fmt.Printf("%-10g  %8.1f  %8.2f  %12d\n",
			hours, 100*res.HitRatio, 100*res.ErrorRate, res.Account.Unavailable)
	}
	fmt.Println("\nlonger outages mean more reads served from expired cache entries:")
	fmt.Println("availability stays high, coherence errors grow — the paper's")
	fmt.Println("Figure 8 trade-off.")
}
