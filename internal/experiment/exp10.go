package experiment

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/workload"
)

// exp10DefaultDays is the coherence head-to-head horizon when the base
// config leaves Days unset: half a simulated day gives each client a few
// hundred queries and the broadcast-IR channel several hundred report
// periods, enough for forced-revalidation and peer-hit rates to settle
// without exp-all-scale wall clock.
const exp10DefaultDays = 0.5

// exp10QuickDays is the -quick horizon, sized for the CI smoke.
const exp10QuickDays = 0.05

// coherenceScheme is one coherence regime under comparison. Exp10 runs
// all of coherenceSchemes — the paper's lazy lease baseline (the control
// column), server-push invalidation reports over a broadcast downlink,
// and cooperative peer caching on top of leases; Exp11 runs the first two.
type coherenceScheme struct {
	name  string
	apply func(*Config)
}

func coherenceSchemes() []coherenceScheme {
	return []coherenceScheme{
		{"lease", func(c *Config) {}},
		{"irb", func(c *Config) { c.Coherence = coherence.IRBroadcastStrategy }},
		{"coop", func(c *Config) { c.CoopPeers = 3 }},
	}
}

// Exp10 — beyond the paper: coherence schemes head-to-head (lazy leases vs
// broadcast invalidation reports vs cooperative caching). Two panels:
//
//  1. scheme x frame-loss sweep on a single cell. Lost report frames
//     force broadcast-IR clients to revalidate whole caches; lost probe
//     or reply frames make cooperative lookups fall back to the server —
//     the loss axis is where the schemes differentiate;
//  2. scheme x fleet size, with the IR air traffic and peer-hit rate the
//     schemes buy their coherence with.
//
// The lease rows are the paper's baseline control: every panel reads as
// "what does each push/peer scheme add over §3.2 leases".
func Exp10(base Config) *Report {
	if base.Days == 0 {
		base.Days = exp10DefaultDays
	}
	return exp10(base,
		[]float64{0, 0.05, 0.1, 0.2, 0.3},
		[][2]int{{100, 4}, {400, 8}})
}

// Exp10Quick runs a sparser grid (three loss points, one small fleet) for
// time-constrained sweeps and the CI smoke.
func Exp10Quick(base Config) *Report {
	if base.Days == 0 {
		base.Days = exp10QuickDays
	}
	return exp10(base,
		[]float64{0, 0.1, 0.3},
		[][2]int{{40, 4}})
}

func exp10(base Config, losses []float64, fleets [][2]int) *Report {
	rep := &Report{Name: "exp10"}
	prep := func(c *Config) {
		c.Granularity = core.HybridCaching
		c.QueryKind = workload.Associative
		if c.UpdateProb == 0 {
			c.UpdateProb = 0.1
		}
	}
	var b batch
	mb := func(bytes uint64) string { return fmt.Sprintf("%.4g", float64(bytes)/1e6) }
	revals := func(res Result) string {
		if res.Config.Coherence != coherence.IRBroadcastStrategy {
			return "-"
		}
		return fmt.Sprint(res.ForcedRevals)
	}
	peerPct := func(res Result) string {
		probes := res.PeerHits + res.PeerMisses
		if probes == 0 {
			return "-"
		}
		return pct(float64(res.PeerHits) / float64(probes))
	}

	// Panel 1: scheme x frame loss, single cell.
	tblL := NewTable(
		"Experiment #10 — coherence schemes under frame loss (HC, single cell)",
		"scheme", "loss %", "hit %", "resp (s)", "err %", "access err %", "revals", "peer hit %")
	rep.Tables = append(rep.Tables, tblL)
	for _, sch := range coherenceSchemes() {
		for _, loss := range losses {
			loss := loss
			cfg := merge(base, func(c *Config) {
				prep(c)
				sch.apply(c)
				c.Label = fmt.Sprintf("exp10/%s/loss=%g", sch.name, loss)
				c.LossRate = loss
			})
			b.add(cfg, func(res Result) {
				tblL.Add(sch.name, pct(loss), pct(res.HitRatio), secs(res.MeanResponse),
					pct(res.ErrorRate), pct(res.Account.AccessErrorRate()), revals(res), peerPct(res))
			})
		}
	}

	// Panel 2: scheme x fleet size. Broadcast IR runs one report channel per
	// cell; cooperation scans cell-local peers only. The title keeps the
	// engine's historical name ("SM"): archived manifests pin it.
	tblF := NewTable(
		"Experiment #10 — coherence schemes across fleet sizes (HC, SM engine)",
		"scheme", "clients x cells", "hit %", "resp (s)", "err %", "IR MB", "peer hit %")
	rep.Tables = append(rep.Tables, tblF)
	for _, sch := range coherenceSchemes() {
		for _, fl := range fleets {
			clientsN, cells := fl[0], fl[1]
			cfg := merge(base, func(c *Config) {
				prep(c)
				sch.apply(c)
				c.Label = fmt.Sprintf("exp10/%s/fleet=%dx%d", sch.name, clientsN, cells)
				c.NumClients = clientsN
				c.Cells = cells
			})
			b.add(cfg, func(res Result) {
				irMB := "-"
				if res.Config.Coherence == coherence.IRBroadcastStrategy {
					irMB = mb(res.IRReportBytes)
				}
				tblF.Add(sch.name, fmt.Sprintf("%dx%d", clientsN, cells),
					pct(res.HitRatio), secs(res.MeanResponse), pct(res.ErrorRate),
					irMB, peerPct(res))
			})
		}
	}
	b.collect(rep)
	return rep
}
