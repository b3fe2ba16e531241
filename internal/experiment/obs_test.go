package experiment

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// TestObsRunIsDeterministic pins the reproducibility contract behind run
// manifests: two instrumented runs of the same (Config, Seed) produce
// byte-identical sampled series and identical Results.
func TestObsRunIsDeterministic(t *testing.T) {
	run := func() (*obs.Registry, Result) {
		cfg := tinyCfg()
		cfg.LossRate = 0.05 // exercise the fault-model gauges too
		cfg.Obs = obs.New(0)
		return cfg.Obs, Run(cfg)
	}
	regA, resA := run()
	regB, resB := run()

	resA.Config.Obs, resB.Config.Obs = nil, nil // each run's own registry
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("instrumented runs diverge:\n%+v\n%+v", resA, resB)
	}
	namesA, namesB := regA.SeriesNames(), regB.SeriesNames()
	if !reflect.DeepEqual(namesA, namesB) {
		t.Fatalf("series names diverge: %v vs %v", namesA, namesB)
	}
	if len(namesA) == 0 {
		t.Fatal("no series registered")
	}
	for _, name := range namesA {
		if !reflect.DeepEqual(regA.Series(name), regB.Series(name)) {
			t.Fatalf("series %s diverges between identical runs", name)
		}
	}
}

// TestObsDoesNotPerturbOutcomes checks that attaching a registry leaves
// every event outcome of the run untouched: same queries, same hits, same
// errors, same frame fates. (The final kernel clock may be rounded up to
// the last sampler tick, so time-averaged utilizations are compared with a
// tolerance rather than exactly.)
func TestObsDoesNotPerturbOutcomes(t *testing.T) {
	cfg := tinyCfg()
	cfg.LossRate = 0.05
	plain := Run(cfg)

	cfg.Obs = obs.New(0)
	instr := Run(cfg)

	type outcomes struct {
		Account                           metrics.Account
		Lost, Corrupted                   uint64
		ServerQueries, DiskReads, Updates uint64
	}
	snap := func(r Result) outcomes {
		return outcomes{
			r.Account, r.FramesLost, r.FramesCorrupted,
			r.Server.QueriesServed, r.Server.DiskReads, r.Server.UpdatesApplied,
		}
	}
	if got, want := snap(instr), snap(plain); got != want {
		t.Fatalf("instrumentation changed run outcomes:\nwith obs: %+v\nwithout:  %+v", got, want)
	}
	if math.Abs(instr.UplinkUtilization-plain.UplinkUtilization) > 0.01 ||
		math.Abs(instr.DownlinkUtilization-plain.DownlinkUtilization) > 0.01 {
		t.Fatalf("utilizations drifted: %v/%v vs %v/%v",
			instr.UplinkUtilization, instr.DownlinkUtilization,
			plain.UplinkUtilization, plain.DownlinkUtilization)
	}

	// The instrumented run actually collected something useful.
	if cfg.Obs.Samples() == 0 {
		t.Fatal("no samples collected")
	}
	for _, name := range []string{
		"uplink.utilization", "downlink.utilization",
		"clients.hit_ratio", "clients.error_rate",
		"clients.cache_occupancy", "clients.evictions",
		"server.buffer_hit_ratio", "uplink.faults.frames_lost",
	} {
		s := cfg.Obs.Series(name)
		if s == nil || len(s.T) != cfg.Obs.Samples() {
			t.Fatalf("series %s missing or short", name)
		}
	}
	// The last tick fires at or before the horizon, so a handful of query
	// completions can postdate it: the final sample tracks the end-of-run
	// pooled hit ratio closely but not to the last read.
	if _, v := cfg.Obs.Series("clients.hit_ratio").Last(); math.Abs(v-plain.HitRatio) > 0.02 {
		t.Fatalf("final sampled hit ratio %v far from Result %v", v, plain.HitRatio)
	}
	// The shipped-RT histogram saw every reply item.
	var rt *obs.Histogram
	for _, h := range cfg.Obs.Histograms() {
		if h.HistogramName() == "server.refresh_time_s" {
			rt = h
		}
	}
	if rt.Count() == 0 {
		t.Fatal("refresh-time histogram empty")
	}
}

// TestRunBatchObsForcesSerial mirrors the Tracer rule: a batch holding an
// instrumented config must not run concurrently (a registry is shared
// mutable state).
func TestRunBatchObsForcesSerial(t *testing.T) {
	cfgs := []Config{tinyCfg(), tinyCfg(), tinyCfg()}
	cfgs[1].Obs = obs.New(0)
	// Concurrent execution with a shared registry would be caught by the
	// race detector; beyond that, serial execution is observable through
	// deterministic sampling: repeat the batch and require identical series.
	resA := Runner{Workers: 8}.RunBatch(cfgs)
	seriesA := cfgs[1].Obs.AllSeries()
	cfgs[1].Obs = obs.New(0)
	resB := Runner{Workers: 8}.RunBatch(cfgs)
	resA[1].Config.Obs, resB[1].Config.Obs = nil, nil // each batch's own registry
	if !reflect.DeepEqual(resA, resB) {
		t.Fatal("instrumented batch results nondeterministic")
	}
	if !reflect.DeepEqual(seriesA, cfgs[1].Obs.AllSeries()) {
		t.Fatal("instrumented batch series nondeterministic")
	}
}

// cellSeries is the ordered list of series an instrumented lossy 2-client
// cell registers, recorded at the commit before Run and the fleet engine
// were merged into one builder; backboneSeries is what a multi-cell run
// registers ahead of it. report.md renders series in registration order,
// so the builder may not reorder, rename, or drop one.
var cellSeries = []string{
	"uplink.utilization", "uplink.queue", "uplink.bytes",
	"uplink.messages", "downlink.utilization", "downlink.queue",
	"downlink.bytes", "downlink.messages", "uplink.faults.frames_lost",
	"uplink.faults.frames_corrupted", "uplink.faults.frames_delivered", "downlink.faults.frames_lost",
	"downlink.faults.frames_corrupted", "downlink.faults.frames_delivered", "server.queries",
	"server.disk_reads", "server.updates", "server.buffer_hit_ratio",
	"server.disk_utilization", "server.rt_p50", "server.rt_p90",
	"clients.hit_ratio", "clients.error_rate", "clients.mean_response_s",
	"clients.queries", "clients.retries", "clients.timeouts",
	"clients.degraded_reads", "clients.cache_bytes", "clients.cache_occupancy",
	"clients.evictions", "clients.energy_j", "client.0.energy_j",
	"client.0.cache_bytes", "client.0.cache_occupancy", "client.0.cache_items",
	"client.0.evictions", "client.0.insertions", "client.0.valid_fraction",
	"client.0.metrics.hit_ratio", "client.0.metrics.error_rate", "client.0.metrics.mean_response_s",
	"client.0.metrics.accesses", "client.0.metrics.retries", "client.0.metrics.timeouts",
	"client.0.metrics.degraded_reads", "client.1.energy_j", "client.1.cache_bytes",
	"client.1.cache_occupancy", "client.1.cache_items", "client.1.evictions",
	"client.1.insertions", "client.1.valid_fraction", "client.1.metrics.hit_ratio",
	"client.1.metrics.error_rate", "client.1.metrics.mean_response_s", "client.1.metrics.accesses",
	"client.1.metrics.retries", "client.1.metrics.timeouts", "client.1.metrics.degraded_reads",
}

var backboneSeries = []string{
	"backbone.bytes", "backbone.messages", "backbone.utilization",
	"backbone.relay_hits", "backbone.relay_misses", "backbone.relayed_reads",
}

func TestObsRegistrationOrder(t *testing.T) {
	registered := func(cfg Config) []string {
		cfg.LossRate = 0.05
		cfg.Obs = obs.New(0)
		Run(cfg)
		var names []string
		for _, s := range cfg.Obs.AllSeries() {
			names = append(names, s.Name)
		}
		return names
	}
	if got := registered(tinyCfg()); !reflect.DeepEqual(got, cellSeries) {
		t.Fatalf("1-cell run registered\n%q\nwant\n%q", got, cellSeries)
	}
	// Four cells of two clients: cell 0 is sampled, behind the backbone.
	fleet := tinyCfg()
	fleet.NumClients, fleet.Cells = 8, 4
	want := append(append([]string{}, backboneSeries...), cellSeries...)
	if got := registered(fleet); !reflect.DeepEqual(got, want) {
		t.Fatalf("4-cell run registered\n%q\nwant\n%q", got, want)
	}
}
