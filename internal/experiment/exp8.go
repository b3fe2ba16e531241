package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// exp8DefaultDays is the fleet sweep's horizon when the base config leaves
// Days unset: a quarter day keeps the 1,000-client points tractable while
// still pushing every cache well past warm-up.
const exp8DefaultDays = 0.25

// Exp8 — beyond the paper: fleet scaling (ROADMAP north star). Three
// panels over multi-cell runs:
//
//  1. fleet size × cell count at the paper's best configuration (HC,
//     EWMA-0.5, SH, U=0.1) — how error rate, response time, backbone
//     traffic, and event volume move as one cell's 10 clients become a
//     partitioned 1,000-client fleet;
//  2. caching granularity at full fleet scale (largest fleet, most cells)
//     — whether Figure 2's ordering survives partitioning;
//  3. the contact servers' relay cache on and off — what cell-local
//     caching of remote partitions saves in backbone bytes.
//
// Multi-cell runs execute one at a time (see RunBatch); each one spreads
// its cells over the worker pool, and the cell-order merge keeps every
// table byte-identical at any -parallel. Wall-clock throughput
// (events/sec) is intentionally not a table column — it is environment
// fact, reported by mcsim from the deterministic Result.Events and the
// measured wall time.
func Exp8(base Config) *Report {
	return exp8(base,
		[]int{10, 100, 1000},
		[]int{1, 2, 4, 8},
		true)
}

// Exp8Quick runs a sparser fleet grid (100 clients, 4 cells at most, no
// relay panel) for time-constrained sweeps and the CI smoke.
func Exp8Quick(base Config) *Report {
	return exp8(base,
		[]int{10, 100},
		[]int{1, 4},
		false)
}

func exp8(base Config, fleets, cellCounts []int, relayPanel bool) *Report {
	rep := &Report{Name: "exp8"}
	if base.Days == 0 {
		base.Days = exp8DefaultDays
	}
	prep := func(c *Config) {
		c.Granularity = core.HybridCaching
		c.QueryKind = workload.Associative
		if c.UpdateProb == 0 {
			c.UpdateProb = 0.1
		}
	}
	var b batch
	mb := func(bytes uint64) string { return fmt.Sprintf("%.4g", float64(bytes)/1e6) }
	millions := func(n uint64) string { return fmt.Sprintf("%.4g", float64(n)/1e6) }

	// Panel 1: fleet size × cell count.
	tbl := NewTable("Experiment #8 — fleet scaling (HC, EWMA-0.5, SH)",
		"clients", "cells", "hit %", "resp (s)", "err %", "backbone MB", "events (M)")
	rep.Tables = append(rep.Tables, tbl)
	for _, fleet := range fleets {
		for _, cells := range cellCounts {
			if cells > fleet {
				continue
			}
			fleet, cells := fleet, cells
			cfg := merge(base, func(c *Config) {
				prep(c)
				c.Label = fmt.Sprintf("exp8/fleet=%d/cells=%d", fleet, cells)
				c.NumClients = fleet
				c.Cells = cells
			})
			b.add(cfg, func(res Result) {
				tbl.Add(fmt.Sprint(fleet), fmt.Sprint(cells),
					pct(res.HitRatio), secs(res.MeanResponse), pct(res.ErrorRate),
					mb(res.BackboneBytes), millions(res.Events))
			})
		}
	}

	// Panel 2: granularity at full fleet scale.
	maxFleet := fleets[len(fleets)-1]
	maxCells := cellCounts[len(cellCounts)-1]
	tblG := NewTable(
		fmt.Sprintf("Experiment #8 — granularity at fleet scale (%d clients, %d cells)",
			maxFleet, maxCells),
		"g", "hit %", "resp (s)", "err %", "backbone MB")
	rep.Tables = append(rep.Tables, tblG)
	for _, g := range core.Granularities() {
		g := g
		cfg := merge(base, func(c *Config) {
			prep(c)
			c.Label = fmt.Sprintf("exp8/%s/fleet=%d/cells=%d", g, maxFleet, maxCells)
			c.Granularity = g
			c.NumClients = maxFleet
			c.Cells = maxCells
		})
		b.add(cfg, func(res Result) {
			tblG.Add(g.String(), pct(res.HitRatio), secs(res.MeanResponse),
				pct(res.ErrorRate), mb(res.BackboneBytes))
		})
	}

	// Panel 3: the contact servers' relay cache on and off.
	if relayPanel {
		tblR := NewTable(
			fmt.Sprintf("Experiment #8 — relay cache (%d clients, %d cells, HC)",
				maxFleet, maxCells),
			"relay objs", "resp (s)", "backbone MB", "relay hit %")
		rep.Tables = append(rep.Tables, tblR)
		for _, relay := range []int{0, 200} {
			relay := relay
			cfg := merge(base, func(c *Config) {
				prep(c)
				c.Label = fmt.Sprintf("exp8/relay=%d", relay)
				c.NumClients = maxFleet
				c.Cells = maxCells
				c.RelayObjects = relay
			})
			b.add(cfg, func(res Result) {
				hitPct := "-"
				if probes := res.RelayHits + res.RelayMisses; probes > 0 {
					hitPct = pct(float64(res.RelayHits) / float64(probes))
				}
				tblR.Add(fmt.Sprint(relay), secs(res.MeanResponse),
					mb(res.BackboneBytes), hitPct)
			})
		}
	}
	b.collect(rep)
	return rep
}
