// Policies: a replacement-policy bake-off on a mobile client whose
// interests drift (§3.3, Experiments #2 and #4). A field engineer's hot set
// changes as they move between sites (the CSH pattern); the example runs
// every policy in the library — the paper's Mean/Window/EWMA schemes, the
// conventional LRU/LRU-k/LRD, and the classical FIFO/CLOCK/Random
// baselines — on both a stable and a changing hot set.
//
// Each run is an experiment.Config literal; Config.Validate parses the
// policy spec up front, so a typo fails with ErrBadSpec before anything
// runs.
//
//	go run ./examples/policies
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/workload"
)

func main() {
	policies := []string{
		"ewma-0.5", "mean", "win-10", "lru", "lru-3", "lrd",
		"fifo", "clock", "random:1",
	}

	type row struct {
		policy   string
		stable   float64
		drifting float64
	}
	rows := make([]row, 0, len(policies))

	for _, pol := range policies {
		rows = append(rows, row{
			policy:   pol,
			stable:   hitRatio(pol, experiment.SkewedHeat),
			drifting: hitRatio(pol, experiment.ChangingSkewedHeat),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].drifting > rows[j].drifting })

	fmt.Println("single client, read-only, hybrid caching, 2 simulated days")
	fmt.Printf("\n%-10s  %12s  %14s  %8s\n", "policy", "stable hit %", "drifting hit %", "drop")
	for _, r := range rows {
		fmt.Printf("%-10s  %12.1f  %14.1f  %7.1f%%\n",
			r.policy, 100*r.stable, 100*r.drifting, 100*(r.stable-r.drifting))
	}
	fmt.Println("\nthe paper's recommendation: EWMA adapts to drift with O(1) state")
	fmt.Println("per item; Mean drags its whole history and collapses when the hot")
	fmt.Println("set moves (Experiment #2).")
}

func hitRatio(policy string, heat experiment.HeatKind) float64 {
	cfg := experiment.Config{
		Seed:           5,
		Days:           2,
		NumClients:     1,
		Granularity:    core.HybridCaching,
		Policy:         policy,
		QueryKind:      workload.Associative,
		Heat:           heat,
		CSHChangeEvery: 300,
		UpdateProb:     0, // read-only: the policies' best case (Figure 3)
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	return experiment.Run(cfg).HitRatio
}
