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
	base := []experiment.Option{
		experiment.WithSeed(99),
		experiment.WithHorizonDays(2),
		experiment.WithGranularity(core.HybridCaching),
		experiment.WithPolicy("ewma-0.5"),
		experiment.WithQueryKind(workload.Associative),
		experiment.WithHeat(experiment.SkewedHeat),
		experiment.WithUpdateProb(0.1),
	}
	run := func(extra ...experiment.Option) experiment.Result {
		sc, err := experiment.New(append(append([]experiment.Option{}, base...), extra...)...)
		if err != nil {
			log.Fatal(err)
		}
		return sc.Run()
	}

	fmt.Println("== arrival patterns: steady Poisson vs commuter bursts ==")
	fmt.Printf("%-8s  %8s  %10s  %14s  %10s\n",
		"arrival", "hit %", "resp (s)", "down util %", "down wait")
	for _, a := range []experiment.ArrivalKind{
		experiment.PoissonArrival, experiment.BurstyArrival,
	} {
		res := run(experiment.WithArrival(a))
		fmt.Printf("%-8s  %8.1f  %10.3f  %14.1f  %9.3fs\n",
			res.Config.Arrival, 100*res.HitRatio, res.MeanResponse,
			100*res.DownlinkUtilization, res.DownlinkMeanWait)
	}
	fmt.Println("\nsame average load — but the bursts queue up behind the downlink.")

	fmt.Println("\n== response time by hour of day (Bursty) ==")
	res := run(experiment.WithArrival(experiment.BurstyArrival))
	for h := 0; h < 24; h += 3 {
		for hh := h; hh < h+3; hh++ {
			marker := "  "
			if (hh >= 7 && hh < 10) || (hh >= 16 && hh < 19) {
				marker = "* " // burst period
			}
			fmt.Printf("%s%02d:00 %7.2fs (%4d queries)   ", marker, hh,
				res.HourlyResponse[hh], res.HourlyQueries[hh])
		}
		fmt.Println()
	}
	fmt.Println("(* = commute burst)")

	fmt.Println("\n== commuter disconnections (Bursty arrivals, 4 of 10 offline) ==")
	fmt.Printf("%-10s  %8s  %8s  %12s\n", "outage (h)", "hit %", "err %", "unavailable")
	for _, hours := range []float64{0, 2, 5, 8} {
		res := run(
			experiment.WithArrival(experiment.BurstyArrival),
			experiment.WithDisconnection(4, hours),
		)
		fmt.Printf("%-10g  %8.1f  %8.2f  %12d\n",
			hours, 100*res.HitRatio, 100*res.ErrorRate, res.Unavailable)
	}
	fmt.Println("\nlonger outages mean more reads served from expired cache entries:")
	fmt.Println("availability stays high, coherence errors grow — the paper's")
	fmt.Println("Figure 8 trade-off.")
}
