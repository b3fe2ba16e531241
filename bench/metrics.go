package main

import (
	"slices"
	"strings"
)

// endToEndMetrics are what a user of mcsim or mccached sees, defined so
// that every one applies to every workload (the contract BENCHMARK.json
// is written to): for a simulator workload a unit of work is one
// Scenario.Run; for a live workload a unit is the fixed request count. There
// is one speed metric: a unit's work is fixed, so operations per second
// would be a constant over wall_s and gate the same measurement twice.
var endToEndMetrics = []string{
	"wall_s",      // host seconds for one unit of work
	"rss_peak_mb", // peak RSS of the process under test (the mccached child for live)
	"setup_s",     // seconds of set-up before timing starts, per unit
}

// The per-layer metrics, by where they come from. A results file and the
// full invocation's table hold a figure only where it was measured; only the
// one-line form of --trace 1, whose contract wants every name, fills the
// rest with 0.

// driverMetrics come from the layer drivers: tight loops over one module's
// public functions. They do not depend on the workload and are measured
// once per invocation.
var driverMetrics = []string{
	"sim.machine_ns_per_event", "sim.heap_ns_per_event_10k",
	"sim.resource_ns_per_acquire", "sim.spawn_ns_per_machine",
	"workload.ns_per_query",
	"replacement.touch_ns_400", "replacement.evict_ns_400",
	"replacement.touch_ns_10", "replacement.evict_ns_10",
	"core.lookup_ns", "core.insert_batch_ns_per_item_400",
	"core.insert_batch_ns_per_item_10", "core.remove_ns",
	"buffer.put_ns", "buffer.get_ns",
	"coherence.observe_write_ns", "coherence.refresh_time_ns", "coherence.oracle_is_error_ns",
	"server.ns_per_request",
	"network.ns_per_send", "network.fault_ns_per_frame",
	"federation.ns_per_request",
	"serve.store_read_ns", "serve.store_fetch_ns_per_item", "serve.store_write_ns",
	"storage.put_group_us_p50", "storage.put_group_us_p99", "storage.put_none_us_p50",
	"storage.get_us_p50", "storage.get_us_p99",
	"storage.recover_ms_per_100k", "storage.compact_ms_per_100k",
}

// simRunMetrics are read from the counters one simulator unit returns.
var simRunMetrics = []string{
	"server.requests", "server.disk_reads", "server.buffer_hit_share",
	"network.retries", "network.frames_lost", "network.degraded_reads",
	"federation.backbone_mb", "federation.backbone_msgs",
	"client.queries", "client.local_share", "client.peer_hit_share", "client.forced_revals",
	"experiment.events", "experiment.us_per_event", "experiment.events_per_s",
	"experiment.alloc_mb", "experiment.allocs_per_event", "experiment.gc_cpu_share",
	"experiment.est_share.sim", "experiment.est_share.workload", "experiment.est_share.server",
	"experiment.est_share.network", "experiment.est_share.federation",
	"experiment.unattributed_share",
}

// liveRunMetrics come from every live workload: client-observed throughput
// and latency of the untraced mccached child, its store counters, and the
// spans of the traced in-process service.
var liveRunMetrics = []string{
	"ops_per_s", "read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us",
	"serve.http_roundtrip_us_p50", "serve.http_roundtrip_us_p99",
	"serve.http_handler_us_p50", "serve.http_self_us_p50", "serve.http_socket_us_p50",
	"serve.http_read_p999_us",
	"serve.http_roundtrip_us_p50_read", "serve.http_handler_us_p50_read",
	"serve.http_self_us_p50_read", "serve.http_socket_us_p50_read",
	"serve.http_roundtrip_us_p50_write", "serve.http_handler_us_p50_write",
	"serve.http_self_us_p50_write", "serve.http_socket_us_p50_write",
	"serve.hit_share", "serve.stale_share", "serve.error_share", "serve.fetches_per_read",
	"trace.overhead_share", "harness.cpu_share",
}

// liveFetchMetrics come from a live workload whose mix holds batch fetches.
var liveFetchMetrics = []string{
	"serve.http_roundtrip_us_p50_fetch", "serve.http_handler_us_p50_fetch",
	"serve.http_self_us_p50_fetch", "serve.http_socket_us_p50_fetch",
}

// liveFileMetrics come from a live workload on the file backend: the
// persistent store's own spans and its storage engine's counters.
var liveFileMetrics = []string{
	"serve.file_read_install_us_p50", "serve.file_write_us_p50",
	"storage.puts_per_write", "storage.puts_per_read", "storage.syncs_per_put",
	"storage.bytes_per_put", "storage.disk_mb", "storage.space_amp", "storage.compactions",
}

// perLayerMetrics are all of the above: the per_layer list of
// BENCHMARK.json.
var perLayerMetrics = slices.Concat(driverMetrics, simRunMetrics, liveRunMetrics, liveFetchMetrics, liveFileMetrics)

// runMetrics returns the per-layer metrics the workload's own run
// produces, in reporting order.
func (w *workloadSpec) runMetrics() []string {
	if !w.live() {
		return simRunMetrics
	}
	names := liveRunMetrics
	if w.fetchShare > 0 {
		names = slices.Concat(names, liveFetchMetrics)
	}
	if w.backend == "file" {
		names = slices.Concat(names, liveFileMetrics)
	}
	return names
}

// unitOf derives a metric's unit from the tokens of its name, so names
// and units cannot drift apart.
func unitOf(name string) string {
	tokens := strings.FieldsFunc(name, func(r rune) bool { return r == '.' || r == '_' })
	has := func(t string) bool { return slices.Contains(tokens, t) }
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case has("share"), has("amp"):
		return "share"
	case has("ns"):
		return "ns"
	case has("us"):
		return "us"
	case has("ms"):
		return "ms"
	case has("mb"):
		return "MB"
	case has("bytes"):
		return "B"
	case strings.HasSuffix(name, "_s"):
		return "s"
	}
	return "count"
}
