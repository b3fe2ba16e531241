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
// The pooled gauges fold every client's account each sampler tick, in
// client order, exactly as the end-of-run Result does; sampled over
// virtual time they become the convergence curves (hit-ratio warm-up,
// error-rate settling) a report plots.
func registerObservables(cfg Config, srv *server.Server, up, down *network.Channel,
	upFaults, downFaults *network.FaultModel, program *broadcast.Program,
	clients []*client.Client, ms []*metrics.Client) {

	reg := cfg.Obs
	up.Register(reg, "uplink")
	down.Register(reg, "downlink")
	upFaults.Register(reg, "uplink.faults")
	downFaults.Register(reg, "downlink.faults")
	// pooled registers a gauge reading one figure of the cell's pooled
	// account.
	pooled := func(name string, figure func(a *metrics.Account) float64) {
		reg.Gauge(name, func() float64 {
			var a metrics.Account
			for _, m := range ms {
				a.Add(&m.Account)
			}
			return figure(&a)
		})
	}
	if program != nil {
		program.Register(reg, "broadcast")
		pooled("broadcast.air_reads", func(a *metrics.Account) float64 { return float64(a.Air) })
	}
	srv.Register(reg)

	pooled("clients.hit_ratio", (*metrics.Account).HitRatio)
	pooled("clients.error_rate", (*metrics.Account).ErrorRate)
	pooled("clients.mean_response_s", (*metrics.Account).MeanResponse)
	pooled("clients.queries", func(a *metrics.Account) float64 { return float64(a.Queries) })
	pooled("clients.retries", func(a *metrics.Account) float64 { return float64(a.Events[metrics.Retry]) })
	pooled("clients.timeouts", func(a *metrics.Account) float64 { return float64(a.Events[metrics.Timeout]) })
	pooled("clients.degraded_reads", func(a *metrics.Account) float64 { return float64(a.Degraded) })

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
	pooled("clients.energy_j", func(a *metrics.Account) float64 { return a.RadioEnergy })
	if cfg.Coherence == coherence.IRBroadcastStrategy {
		pooled("clients.ir_reports", func(a *metrics.Account) float64 { return float64(a.Events[metrics.IRReport]) })
		pooled("clients.ir_missed", func(a *metrics.Account) float64 { return float64(a.Events[metrics.IRMiss]) })
		pooled("clients.forced_reval", func(a *metrics.Account) float64 { return float64(a.Events[metrics.ForcedReval]) })
	}
	if cfg.CoopPeers > 0 {
		pooled("clients.peer_hits", func(a *metrics.Account) float64 { return float64(a.Peer) })
		pooled("clients.peer_misses", func(a *metrics.Account) float64 { return float64(a.Events[metrics.PeerMiss]) })
	}

	// Per-client detail: convergence and cache series for each mobile host
	// (client.N.* and client.N.metrics.*).
	for i, cl := range clients {
		cl.Register(reg, fmt.Sprintf("client.%d", i))
		ms[i].Register(reg, fmt.Sprintf("client.%d.metrics", i))
	}
}
