package experiment

import (
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/client"
	"repro/internal/coherence"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/server"
)

// registerObservables wires one run's entities into cfg.Obs. Series are
// registered in a fixed order — channels, fault models, server, pooled
// client aggregates, then per-client detail — so manifests and reports are
// byte-stable across runs of the same config.
//
// The aggregate gauges recompute the pooled metrics each sampler tick by
// merging every client's accumulator, exactly as the end-of-run Result
// does; sampled over virtual time they become the convergence curves
// (hit-ratio warm-up, error-rate settling) a report plots.
func registerObservables(cfg Config, srv *server.Server, up, down *network.Channel,
	upFaults, downFaults *network.FaultModel, program *broadcast.Program,
	clients []*client.Client, ms []*metrics.Client) {

	reg := cfg.Obs
	up.Register(reg, "uplink")
	down.Register(reg, "downlink")
	upFaults.Register(reg, "uplink.faults")
	downFaults.Register(reg, "downlink.faults")
	// sum registers a gauge totalling one counter across the cell's
	// clients, in client order.
	sum := func(name string, counter func(client.Counters) float64) {
		reg.Gauge(name, func() float64 {
			var total float64
			for _, cl := range clients {
				total += counter(cl.Counters())
			}
			return total
		})
	}
	if program != nil {
		program.Register(reg, "broadcast")
		sum("broadcast.air_reads", func(n client.Counters) float64 { return float64(n.BroadcastReads) })
	}
	srv.Register(reg)

	pooled := func() metrics.Aggregate {
		var a metrics.Aggregate
		for _, m := range ms {
			a.Merge(m)
		}
		return a
	}
	reg.Gauge("clients.hit_ratio", func() float64 { a := pooled(); return a.HitRatio() })
	reg.Gauge("clients.error_rate", func() float64 { a := pooled(); return a.ErrorRate() })
	reg.Gauge("clients.mean_response_s", func() float64 { a := pooled(); return a.MeanResponse() })
	reg.Gauge("clients.queries", func() float64 { a := pooled(); return float64(a.Issued) })
	reg.Gauge("clients.retries", func() float64 { a := pooled(); return float64(a.Retries) })
	reg.Gauge("clients.timeouts", func() float64 { a := pooled(); return float64(a.Timeouts) })
	reg.Gauge("clients.degraded_reads", func() float64 { a := pooled(); return float64(a.Degraded) })

	// Cache health pooled across the cell (clients share one policy per
	// run, so this is the "occupancy and eviction rate per policy" view).
	reg.Gauge("clients.cache_bytes", func() float64 {
		var total float64
		for _, cl := range clients {
			if st := cl.Store(); st != nil {
				total += float64(st.UsedBytes())
			}
		}
		return total
	})
	reg.Gauge("clients.cache_occupancy", func() float64 {
		var used, capa float64
		for _, cl := range clients {
			if st := cl.Store(); st != nil {
				used += float64(st.UsedBytes())
				capa += float64(st.CapacityBytes())
			}
		}
		if capa == 0 {
			return 0
		}
		return used / capa
	})
	reg.Gauge("clients.evictions", func() float64 {
		var total float64
		for _, cl := range clients {
			if st := cl.Store(); st != nil {
				total += float64(st.Evictions())
			}
		}
		return total
	})
	sum("clients.energy_j", func(n client.Counters) float64 { return n.RadioEnergy })
	if cfg.Coherence == coherence.IRBroadcastStrategy {
		sum("clients.ir_reports", func(n client.Counters) float64 { return float64(n.IRBReports) })
		sum("clients.ir_missed", func(n client.Counters) float64 { return float64(n.IRBMissed) })
		sum("clients.forced_reval", func(n client.Counters) float64 { return float64(n.ForcedRevals) })
	}
	if cfg.CoopPeers > 0 {
		sum("clients.peer_hits", func(n client.Counters) float64 { return float64(n.PeerHits) })
		sum("clients.peer_misses", func(n client.Counters) float64 { return float64(n.PeerMisses) })
	}

	// Per-client detail: convergence and cache series for each mobile host
	// (client.N.* and client.N.metrics.*).
	for i, cl := range clients {
		cl.Register(reg, fmt.Sprintf("client.%d", i))
		ms[i].Register(reg, fmt.Sprintf("client.%d.metrics", i))
	}
}
