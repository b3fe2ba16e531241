package main

import (
	"context"
	"path/filepath"
	"time"
)

// layers runs the per-layer drivers. Their figures do not depend on the
// workload, so a full invocation runs them once. Every driver batch is a
// span; they are written to <work>/trace-layers.json.
func (r *runner) layers(seed uint64) (*runOutput, error) {
	o := newRunOutput()
	tr := newTracer()
	scale := 1
	if r.toy {
		scale = 200
	}
	lb := &layerBench{tr: tr, scale: scale, work: r.work, o: o}
	if err := lb.run(seed); err != nil {
		return nil, err
	}
	return o, tr.write(filepath.Join(r.work, "trace-layers.json"))
}

// traced produces the per-layer metrics of one workload's own run
// (w.runMetrics) — one counted unit for a simulator workload; for a live
// workload untraced units against the mccached child (client-observed
// throughput and latency, store counters) followed by traced units against
// the in-process service, whose spans are written to
// <work>/trace-<workload>.json when the run ends. drivers holds the layer
// drivers' figures, which a simulator workload's estimated shares are
// computed from.
func (r *runner) traced(ctx context.Context, w *workloadSpec, seed uint64, budget time.Duration, drivers *runOutput) (*runOutput, error) {
	o := newRunOutput()
	var err error
	if w.live() {
		tr := newTracer()
		if err = r.tracedLive(ctx, w, seed, budget, tr, o); err == nil {
			err = tr.write(filepath.Join(r.work, "trace-"+w.name+".json"))
		}
	} else {
		err = r.countedSim(ctx, w, seed, drivers, o)
	}
	if err != nil {
		return nil, err
	}
	o.Correct = o.Failed == 0
	return o, nil
}

// countedSim runs one unit of a simulator workload and reads the layer
// counts the run already returns, then estimates each layer's share of the
// run from its driver cost and its count.
func (r *runner) countedSim(ctx context.Context, w *workloadSpec, seed uint64, drivers, o *runOutput) error {
	res, err := r.simUnit(ctx, w, seed)
	if err != nil {
		return err
	}
	o.Attempted = 1
	var first string
	if !r.fingerprintOK(w, seed, res.Fingerprint, &first) {
		o.Failed = 1
	}
	count := func(name string, v float64) { o.set(name, v, 1) }
	driver := func(name string) float64 { return drivers.Metrics[name].Value }
	events := float64(res.Events)

	count("client.queries", float64(res.Queries))
	count("client.local_share", ratio(float64(res.QueriesLocal), float64(res.Queries)))
	count("client.peer_hit_share", ratio(float64(res.PeerHits), float64(res.PeerHits+res.PeerMisses)))
	count("client.forced_revals", float64(res.ForcedRevals))
	count("server.requests", float64(res.ServerRequests))
	count("server.disk_reads", float64(res.DiskReads))
	count("server.buffer_hit_share", res.BufferHitShare)
	count("network.retries", float64(res.Retries))
	count("network.frames_lost", float64(res.FramesLost))
	count("network.degraded_reads", float64(res.DegradedReads))
	count("federation.backbone_mb", float64(res.BackboneBytes)/(1<<20))
	count("federation.backbone_msgs", float64(res.BackboneMsgs))

	count("experiment.events", events)
	count("experiment.us_per_event", ratio(res.WallS*1e6, events))
	count("experiment.events_per_s", ratio(events, res.WallS))
	count("experiment.alloc_mb", res.AllocMB)
	count("experiment.allocs_per_event", ratio(float64(res.Allocs), events))
	count("experiment.gc_cpu_share", res.GCCPUShare)

	// Estimated shares: driver ns × the layer's count ÷ the run's wall
	// time. A request costs one uplink and one downlink send; on a fleet
	// the contact server's figure already contains the node servers'. The
	// drivers overlap (each runs on a kernel), so the shares are a rough
	// guide and the remainder is what only in-program attribution can
	// explain.
	remote := float64(res.QueriesRemote)
	shares := map[string]float64{
		"sim":      driver("sim.machine_ns_per_event") * events,
		"workload": driver("workload.ns_per_query") * float64(res.Queries),
		"network":  driver("network.ns_per_send") * (2*remote + float64(res.Retries)),
	}
	if res.Cells > 1 {
		shares["federation"] = driver("federation.ns_per_request") * remote
	} else {
		shares["server"] = driver("server.ns_per_request") * float64(res.ServerRequests)
	}
	rest := 1.0
	for _, layer := range []string{"sim", "workload", "server", "network", "federation"} {
		share := ratio(shares[layer]/1e9, res.WallS)
		count("experiment.est_share."+layer, share)
		rest -= share
	}
	count("experiment.unattributed_share", rest)
	return nil
}

// tracedLive measures a live workload three ways: untraced against the real
// mccached child (client-observed throughput and latency, store counters),
// then against the in-process service untraced and traced. Tracing overhead
// compares the two in-process runs: the child pays for process switches on
// every request that goroutines in one process do not.
func (r *runner) tracedLive(ctx context.Context, w *workloadSpec, seed uint64, budget time.Duration, tr *tracer, o *runOutput) error {
	var lat [numOps][]float64
	var cpuShare []float64
	var done, wall, reads, hits, stales, errs, fetches float64
	// Most of the budget goes to the child: write_p99_us on live_durable
	// needs about a thousand writes for ten samples to lie beyond it.
	err := repeatFor(ctx, budget*3/5, 1, func() error {
		res, err := r.runLiveUnit(ctx, w, seed, r.toy, false, nil)
		if err != nil {
			return err
		}
		o.Attempted += res.attempted
		o.Failed += res.failed
		for k := range lat {
			lat[k] = append(lat[k], res.latUS[k]...)
		}
		cpuShare = append(cpuShare, res.cpuShare)
		done += float64(res.attempted - res.failed)
		wall += res.wallS
		reads += float64(res.stats.Reads)
		hits += float64(res.stats.Hits)
		stales += float64(res.stats.Stales)
		errs += float64(res.stats.Errors)
		fetches += float64(res.stats.Fetches)
		return nil
	})
	if err != nil {
		return err
	}
	o.set("ops_per_s", ratio(done, wall), int(done))
	o.set("read_p50_us", median(lat[opRead]), len(lat[opRead]))
	o.set("read_p99_us", quantile(lat[opRead], 0.99), len(lat[opRead]))
	o.set("write_p50_us", median(lat[opWrite]), len(lat[opWrite]))
	o.set("write_p99_us", quantile(lat[opWrite], 0.99), len(lat[opWrite]))
	o.set("serve.hit_share", ratio(hits, reads), int(reads))
	o.set("serve.stale_share", ratio(stales, reads), int(reads))
	o.set("serve.error_share", ratio(errs, reads), int(reads))
	o.set("serve.fetches_per_read", ratio(fetches, reads), int(reads))
	o.set("harness.cpu_share", median(cpuShare), len(cpuShare))

	base, err := r.runLiveUnit(ctx, w, seed, r.toy, true, nil)
	if err != nil {
		return err
	}
	o.Attempted += base.attempted
	o.Failed += base.failed
	baseOps := float64(base.attempted-base.failed) / base.wallS

	var tracedOps []float64
	var readReqs, writeReqs, installs, puts, syncs, compactions, diskGrowth float64
	var diskBytes, liveBytes int64
	err = repeatFor(ctx, budget/5, 1, func() error {
		res, err := r.runLiveUnit(ctx, w, seed, r.toy, true, tr)
		if err != nil {
			return err
		}
		o.Attempted += res.attempted
		o.Failed += res.failed
		tracedOps = append(tracedOps, float64(res.attempted-res.failed)/res.wallS)
		readReqs += float64(len(res.latUS[opRead]))
		writeReqs += float64(len(res.latUS[opWrite]))
		installs += float64(res.stats.Fetches)
		puts += float64(res.storage1.Puts - res.storage0.Puts)
		syncs += float64(res.storage1.Syncs - res.storage0.Syncs)
		compactions += float64(res.storage1.Compactions - res.storage0.Compactions)
		diskGrowth += float64(res.storage1.DiskBytes - res.storage0.DiskBytes)
		diskBytes, liveBytes = res.storage1.DiskBytes, res.storage1.LiveBytes
		return nil
	})
	if err != nil {
		return err
	}
	o.set("trace.overhead_share", 1-ratio(median(tracedOps), baseOps), len(tracedOps))

	spans := tr.analyze()
	all := spans[""]
	o.set("serve.http_roundtrip_us_p50", median(all.roundtrip), len(all.roundtrip))
	o.set("serve.http_roundtrip_us_p99", quantile(all.roundtrip, 0.99), len(all.roundtrip))
	o.set("serve.http_handler_us_p50", median(all.handler), len(all.handler))
	o.set("serve.http_self_us_p50", median(all.self), len(all.self))
	o.set("serve.http_socket_us_p50", median(all.socket), len(all.socket))
	for _, op := range opNames {
		t := spans[op]
		if t == nil {
			continue
		}
		o.set("serve.http_roundtrip_us_p50_"+op, median(t.roundtrip), len(t.roundtrip))
		o.set("serve.http_handler_us_p50_"+op, median(t.handler), len(t.handler))
		o.set("serve.http_self_us_p50_"+op, median(t.self), len(t.self))
		o.set("serve.http_socket_us_p50_"+op, median(t.socket), len(t.socket))
	}
	if t := spans["read"]; t != nil {
		o.set("serve.http_read_p999_us", quantile(t.roundtrip, 0.999), len(t.roundtrip))
	}
	if w.backend != "file" {
		return nil
	}

	// The persistent store's own spans and its engine's counters. A read
	// that installs a lease writes one record; whatever else was written
	// belongs to the writes.
	if t := spans["read"]; t != nil {
		o.set("serve.file_read_install_us_p50", median(t.storeInstall), len(t.storeInstall))
	}
	if t := spans["write"]; t != nil {
		o.set("serve.file_write_us_p50", median(t.store), len(t.store))
	}
	o.set("storage.puts_per_write", ratio(puts-installs, writeReqs), int(writeReqs))
	o.set("storage.puts_per_read", ratio(installs, readReqs), int(readReqs))
	o.set("storage.syncs_per_put", ratio(syncs, puts), int(puts))
	o.set("storage.bytes_per_put", ratio(diskGrowth, puts), int(puts))
	o.set("storage.disk_mb", float64(diskBytes)/(1<<20), 1)
	o.set("storage.space_amp", ratio(float64(diskBytes), float64(liveBytes)), 1)
	o.set("storage.compactions", compactions, 1)
	return nil
}
