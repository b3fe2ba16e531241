package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/workload"
)

// workloadSpec is one named set of inputs. A sim workload is a Scenario;
// a live workload is a request mix replayed against mccached. One unit is
// a fixed amount of work — a fixed horizon or a fixed request count — and
// a run repeats units for its time budget and reports medians.
type workloadSpec struct {
	name string

	// Simulator workloads: the scenario minus seed and horizon, the
	// simulated days of one unit, of the set-up pilot and of a toy unit,
	// and the seed-1 result fingerprint a unit must reproduce.
	scenario  func() []experiment.Option
	days      float64
	pilotDays float64
	toyDays   float64
	pin       string

	// Live workloads: the mccached backend, per-connection request and
	// warm-up counts, and the share of reads and batch fetches (the rest
	// are writes).
	backend     string
	requests    int
	warm        int
	toyRequests int
	readShare   float64
	fetchShare  float64
}

func (w *workloadSpec) live() bool { return w.backend != "" }

// Live-workload constants shared by the generator, the mccached flags and
// the in-process store.
const (
	liveObjects = 2000
	// liveConnections is the number of mobile clients: each owns one cache
	// session and one connection, issues one request and waits for the
	// reply (a closed loop), as the paper's client does. Eight callers keep
	// both cores busy, so a run measures throughput at saturation; with
	// two, the cores idle between requests and throughput follows the
	// scheduler's wake-up latency (measured: run-to-run spread 8 % against
	// 1 % at eight).
	liveConnections = 8
	liveZipf        = 1.1
	liveFetchReads  = 8
)

// workloads lists the five workloads in reporting order. Unit sizes keep
// the per-event and per-request profile of the full-size runs described in
// README.md while letting a 15-second run hold several units.
var workloads = []*workloadSpec{
	{
		// The paper's Table-1 world: the model-heavy regime every paper
		// table is made of (core, replacement, server, coherence).
		name: "sim_paper",
		scenario: func() []experiment.Option {
			return []experiment.Option{
				experiment.WithClients(10), experiment.WithObjects(2000),
				experiment.WithClientCache(400, 0),
				experiment.WithGranularity(core.HybridCaching),
				experiment.WithPolicy("ewma-0.5"),
				experiment.WithQueryKind(workload.Associative),
				experiment.WithUpdateProb(0.1),
				experiment.WithCoherence("lease"),
			}
		},
		days: 2, pilotDays: 0.1, toyDays: 0.02,
		pin: "228ebef4f4f2cc2cd367bd9cadca9b9616919c19082e1690b689f450581372f7",
	},
	{
		// A thin-client fleet: the scale regime (kernel, network,
		// federation, allocation) and the RSS workload.
		name: "sim_fleet",
		scenario: func() []experiment.Option {
			return []experiment.Option{
				experiment.WithFleet(2000, 4), experiment.WithObjects(500),
				experiment.WithClientCache(10, 4),
				experiment.WithGranularity(core.AttributeCaching),
			}
		},
		days: 0.03, pilotDays: 0.003, toyDays: 0.0005,
		pin: "aa9efefa053b5ff006ad007f1025bab951346159a96c6ef25930c60c58d86e21",
	},
	{
		// Broadcast invalidation, frame loss, retries and peer probes: the
		// dual-branch client/network code used differently.
		name: "sim_lossy",
		scenario: func() []experiment.Option {
			return []experiment.Option{
				experiment.WithClients(10),
				experiment.WithGranularity(core.HybridCaching),
				experiment.WithQueryKind(workload.Associative),
				experiment.WithUpdateProb(0.1),
				experiment.WithCoherence("irb"),
				experiment.WithLoss(0.1),
				experiment.WithCooperative(3),
			}
		},
		days: 1.5, pilotDays: 0.1, toyDays: 0.02,
		pin: "110e7a367e29772cbf7a917a2ffe9944d3e944b8135baba21c6b3abeb1c920c6",
	},
	{
		// The live request path with no disk: HTTP codec and sockets.
		name: "live_mem", backend: "memory",
		requests: 8000, warm: 1500, toyRequests: 60,
		readShare: 0.8, fetchShare: 0.1,
	},
	{
		// The persistence path: group-commit windows behind reads that
		// install a lease and behind every write.
		name: "live_durable", backend: "file",
		requests: 500, warm: 100, toyRequests: 15,
		readShare: 0.7, fetchShare: 0,
	},
}

// findWorkload returns the spec named name, or nil.
func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// simResult is what one simulator unit reports: host timings, the result
// fingerprint, and the counters the per-layer metrics are read from.
type simResult struct {
	WallS       float64 `json:"wall_s"`
	SetupS      float64 `json:"setup_s"`
	RSSPeakMB   float64 `json:"rss_peak_mb"` // of the process that ran the unit
	Fingerprint string  `json:"fingerprint"`
	Cells       int     `json:"cells"`

	Events        uint64 `json:"events"`
	Queries       uint64 `json:"queries"`
	QueriesLocal  uint64 `json:"queries_local"`
	QueriesRemote uint64 `json:"queries_remote"`
	PeerHits      uint64 `json:"peer_hits"`
	PeerMisses    uint64 `json:"peer_misses"`
	ForcedRevals  uint64 `json:"forced_revals"`
	Retries       uint64 `json:"retries"`
	FramesLost    uint64 `json:"frames_lost"`
	DegradedReads uint64 `json:"degraded_reads"`

	ServerRequests uint64  `json:"server_requests"`
	DiskReads      uint64  `json:"disk_reads"`
	BufferHitShare float64 `json:"buffer_hit_share"`
	BackboneBytes  uint64  `json:"backbone_bytes"`
	BackboneMsgs   uint64  `json:"backbone_msgs"`

	AllocMB    float64 `json:"alloc_mb"`
	Allocs     uint64  `json:"allocs"`
	GCCPUShare float64 `json:"gc_cpu_share"`
}

// newScenario builds the workload's scenario at the given seed and
// horizon.
func (w *workloadSpec) newScenario(seed uint64, days float64) (*experiment.Scenario, error) {
	opts := append(w.scenario(), experiment.WithSeed(seed), experiment.WithHorizonDays(days))
	return experiment.New(opts...)
}

// runSimUnit executes one unit of a simulator workload in this process.
// Set-up is everything before timing starts: building the scenario and a
// short pilot run of the same configuration, which pages the code in and
// grows the heap, so the timed run measures the simulator and not the
// process start. The pilot also pays the scenario's construction cost
// (database, clients, cells), so work moved into construction shows here.
func runSimUnit(w *workloadSpec, seed uint64, toy bool) (simResult, error) {
	start := time.Now()
	days, pilot := w.days, w.pilotDays
	if toy {
		days, pilot = w.toyDays, w.toyDays/4
	}
	ps, err := w.newScenario(seed, pilot)
	if err != nil {
		return simResult{}, err
	}
	ps.Run()
	sc, err := w.newScenario(seed, days)
	if err != nil {
		return simResult{}, err
	}
	runtime.GC()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := cpuSeconds()
	setup := time.Since(start)

	t0 := time.Now()
	res := sc.Run()
	wall := time.Since(t0)

	gc1, cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return simResult{}, err
	}
	return simResult{
		RSSPeakMB:   rss,
		WallS:       wall.Seconds(),
		SetupS:      setup.Seconds(),
		Fingerprint: fingerprint(res),
		Cells:       res.Config.Cells,

		Events:        res.Events,
		Queries:       res.QueriesIssued,
		QueriesLocal:  res.QueriesLocal,
		QueriesRemote: res.QueriesRemote,
		PeerHits:      res.PeerHits,
		PeerMisses:    res.PeerMisses,
		ForcedRevals:  res.ForcedRevals,
		Retries:       res.Retries,
		FramesLost:    res.FramesLost,
		DegradedReads: res.DegradedReads,

		ServerRequests: res.Server.QueriesServed,
		DiskReads:      res.Server.DiskReads,
		BufferHitShare: ratio(float64(res.Server.BufferHits), float64(res.Server.BufferHits+res.Server.DiskReads)),
		BackboneBytes:  res.BackboneBytes,
		BackboneMsgs:   res.BackboneMessages,

		AllocMB:    float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		Allocs:     m1.Mallocs - m0.Mallocs,
		GCCPUShare: ratio(gc1-gc0, cpu1-cpu0),
	}, nil
}

// cpuSeconds reads the runtime's cumulative GC and total CPU seconds.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
	}
	metrics.Read(s)
	for i := range s {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	gc = s[0].Value.Float64()
	return gc, gc + s[1].Value.Float64()
}

// fingerprint hashes the deterministic fields of a Result. A faster
// simulator must leave every simulated statistic identical; this is the
// check.
func fingerprint(r experiment.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %d %.17g %.17g %.17g %d %d %d %d %d",
		r.Events, r.QueriesIssued, r.QueriesLocal, r.QueriesRemote,
		r.HitRatio, r.MeanResponse, r.ErrorRate,
		r.Retries, r.FramesLost, r.IRReports, r.PeerHits, r.BackboneBytes)
	for _, c := range r.PerClient {
		fmt.Fprintf(h, " %.17g", c.HitRatio)
	}
	return hex.EncodeToString(h.Sum(nil))
}
