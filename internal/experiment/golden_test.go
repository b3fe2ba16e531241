package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// These goldens are the correctness gate for the execution engine. They
// were recorded on the goroutine (Proc) engine at the last commit that
// carried it — this file compiles there unchanged and `-update`
// regenerates the identical testdata/golden_scenarios.json — and pin, per
// scenario, the SHA-256 of every Result field except Config (metrics,
// per-client snapshots, server stats with every oracle-checked error
// count, channel utilizations, the kernel's event count) and of the query
// trace CSV. They carry the proof the Proc-vs-machine lockstep suite used
// to (hence the test's name): any change to the order of schedule calls on
// the request path moves a hash.

var updateGoldens = flag.Bool("update", false, "rewrite testdata/golden_scenarios.json")

const goldenFile = "testdata/golden_scenarios.json"

// goldenHashes is one scenario's pinned fingerprint.
type goldenHashes struct {
	Result string `json:"result"`
	Trace  string `json:"trace"`
}

type goldenCase struct {
	name string
	cfg  Config
}

// fuzzShape is the scenario family the retired engine fuzzer drew from;
// its three seed tuples stay as golden cases.
func fuzzShape(seed uint64, gran, disrupt uint8, shed, fleet bool) Config {
	cfg := Config{
		Seed: seed, Days: 0.02, NumClients: 4,
		Granularity: core.Granularity(gran % 4),
		UpdateProb:  0.2,
	}
	if shed {
		cfg.ShedThreshold = 0.5
	}
	switch disrupt % 3 {
	case 1:
		cfg.LossRate = 0.2
		cfg.CorruptRate = 0.05
	case 2:
		cfg.DisconnectedClients = 2
		cfg.DisconnectHours = 6
	}
	if fleet {
		cfg.Cells = 2
	}
	return cfg
}

// goldenCases sweeps the feature matrix: every wait point the client owns
// (local holds, uplink, server staging, downlink with shedding, retry
// timeouts and backoff, broadcast slots, peer probes, fleet backbone
// relays) appears in at least one case. Every server round trip runs the
// one attempt loop; the lossless cases pin that it schedules nothing past
// the first attempt, the lossy ones its timeouts, backoff and degradation.
func goldenCases() []goldenCase {
	return []goldenCase{
		{"defaults-oc", Config{
			Seed: 1, Days: 0.05, NumClients: 8,
			Granularity: core.ObjectCaching, UpdateProb: 0.2,
		}},
		{"nc-no-store", Config{
			Seed: 2, Days: 0.05, NumClients: 6,
			Granularity: core.NoCache, UpdateProb: 0.5,
		}},
		{"hc-prefetch-shed", Config{
			Seed: 3, Days: 0.05, NumClients: 8,
			Granularity: core.HybridCaching, UpdateProb: 0.2,
			ShedThreshold: 0.5, Arrival: BurstyArrival,
		}},
		{"faults-retry", Config{
			Seed: 4, Days: 0.05, NumClients: 8,
			Granularity: core.AttributeCaching, UpdateProb: 0.2,
			LossRate: 0.15, CorruptRate: 0.05,
			BurstFraction: 0.1, MeanBadSeconds: 30,
		}},
		// Long enough that a report gap outlasts the window: both
		// disconnected clients' first outages begin after 0.33 days, and
		// the first forced revalidation lands before 0.59.
		{"irb-disconnect", Config{
			Seed: 5, Days: 0.59, NumClients: 6,
			Granularity: core.ObjectCaching, UpdateProb: 0.5,
			Coherence:           coherence.IRBroadcastStrategy,
			DisconnectedClients: 2, DisconnectHours: 6,
		}},
		{"broadcast-air", Config{
			Seed: 6, Days: 0.05, NumClients: 8,
			Granularity: core.AttributeCaching, UpdateProb: 0.2,
			SharedHotObjects: 100, SharedHotProb: 0.7, BroadcastAttrs: 4,
		}},
		// The horizons of the disconnect scenarios end just past the first
		// outage (0.31 days here, 0.05 and 0.35 below).
		{"fixed-lease-disconnect", Config{
			Seed: 7, Days: 0.32, NumClients: 8,
			Granularity: core.ObjectCaching, UpdateProb: 0.2,
			Coherence:           coherence.FixedLeaseStrategy,
			FixedLease:          120,
			DisconnectedClients: 3, DisconnectHours: 8,
		}},
		{"fleet-relay", Config{
			Seed: 8, Days: 0.05, NumClients: 12, Cells: 4,
			Granularity: core.HybridCaching, UpdateProb: 0.2,
			RelayObjects: 50,
		}},
		{"fleet-faults", Config{
			Seed: 9, Days: 0.05, NumClients: 8, Cells: 2,
			Granularity: core.ObjectCaching, UpdateProb: 0.2,
			LossRate: 0.1,
		}},
		{"irb-coherence", Config{
			Seed: 10, Days: 0.05, NumClients: 8,
			Granularity: core.HybridCaching, UpdateProb: 0.5,
			Coherence: coherence.IRBroadcastStrategy,
			LossRate:  0.2, CorruptRate: 0.05,
		}},
		{"irb-fleet-disconnect", Config{
			Seed: 11, Days: 0.06, NumClients: 12, Cells: 3,
			Granularity: core.ObjectCaching, UpdateProb: 0.5,
			Coherence:           coherence.IRBroadcastStrategy,
			DisconnectedClients: 4, DisconnectHours: 8,
		}},
		{"cooperative", Config{
			Seed: 12, Days: 0.05, NumClients: 8,
			Granularity: core.HybridCaching, UpdateProb: 0.2,
			CoopPeers: 3,
		}},
		{"cooperative-faults", Config{
			Seed: 13, Days: 0.05, NumClients: 10, Cells: 2,
			Granularity: core.AttributeCaching, UpdateProb: 0.2,
			CoopPeers: 4, LossRate: 0.15, CorruptRate: 0.05,
		}},
		{"irb-coop-combined", Config{
			Seed: 14, Days: 0.05, NumClients: 8,
			Granularity: core.HybridCaching, UpdateProb: 0.3,
			Coherence: coherence.IRBroadcastStrategy, CoopPeers: 3,
			LossRate: 0.1,
		}},
		// TestIRBroadcastMissedUnderBursts's scenario: outages longer than
		// the IR window, so the forced-revalidation path fires.
		{"irb-burst-outages", Config{
			Seed: 9, Days: 0.2, NumClients: 6,
			Granularity: core.ObjectCaching, UpdateProb: 0.5,
			Coherence:     coherence.IRBroadcastStrategy,
			BurstFraction: 0.3, MeanBadSeconds: 400,
		}},
		// Shedding on a lossy downlink: the deferred-size hook runs on a
		// reply whose frame may then be lost or corrupted.
		{"shed-faults", Config{
			Seed: 15, Days: 0.05, NumClients: 8,
			Granularity: core.HybridCaching, UpdateProb: 0.2,
			ShedThreshold: 0.5, LossRate: 0.1, Arrival: BurstyArrival,
		}},
		{"fuzz-seed-1", fuzzShape(1, 2, 0, false, false)},
		{"fuzz-seed-42", fuzzShape(42, 3, 1, true, false)},
		{"fuzz-seed-7", func() Config {
			cfg := fuzzShape(7, 1, 2, false, true)
			cfg.Days = 0.36
			return cfg
		}()},
	}
}

// runGolden executes cfg with a CSV tracer attached and fingerprints the
// outcome: the Result through goldenFields, and the query trace.
func runGolden(t *testing.T, cfg Config) goldenHashes {
	t.Helper()
	var buf bytes.Buffer
	tr := trace.NewCSV(&buf)
	cfg.Tracer = tr
	res := Run(cfg)
	tr.Flush()
	if res.QueriesIssued == 0 {
		t.Fatal("golden run issued no queries — the scenario is vacuous")
	}
	if cfg.DisconnectedClients > 0 && res.Account.Unavailable == 0 {
		t.Fatal("golden run disconnects clients but no read was unavailable — the horizon ends before the first outage")
	}
	return goldenHashes{
		Result: fmt.Sprintf("%x", sha256.Sum256([]byte(renderSansConfig(res)))),
		Trace:  fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())),
	}
}

// goldenField is one named value of the lockstep's Result projection.
type goldenField struct {
	name  string
	value any
}

// goldenExcluded lists the Result fields the projection leaves out: the
// run's input, not its outcome.
var goldenExcluded = []string{"Config"}

// goldenAccountLines are the lines that render Result.Account: the eleven
// fields setAccount reads off it, and the nine that read the account
// itself. A figure the account gains reaches the hash only through a new
// line.
var goldenAccountLines = []string{
	"HitRatio", "MeanResponse", "ErrorRate", "QueriesIssued", "QueriesLocal",
	"QueriesRemote", "Retries", "DegradedReads", "ForcedRevals", "PeerHits",
	"PeerMisses",
	"Unavailable", "ItemsShed", "BroadcastReads", "AccessErrorRate", "Timeouts",
	"HourlyResponse", "HourlyQueries", "RadioEnergyPerQuery", "IRMissed",
}

// goldenFields is the lockstep's projection of a Result: every outcome
// line by name, in the order the fingerprints were recorded. The list is
// explicit, so a field can leave Result, or move into Result.Account,
// without moving the other fingerprints;
// TestGoldenFieldsCoverResult keeps a new field from escaping the hash.
func goldenFields(r Result) []goldenField {
	hourlyMean, hourlyQueries := r.Account.HourlyResponse()
	return []goldenField{
		{"HitRatio", r.HitRatio},
		{"MeanResponse", r.MeanResponse},
		{"ErrorRate", r.ErrorRate},
		{"QueriesIssued", r.QueriesIssued},
		{"QueriesLocal", r.QueriesLocal},
		{"QueriesRemote", r.QueriesRemote},
		{"Unavailable", r.Account.Unavailable},
		{"UplinkUtilization", r.UplinkUtilization},
		{"DownlinkUtilization", r.DownlinkUtilization},
		{"DownlinkMeanWait", r.DownlinkMeanWait},
		{"ItemsShed", r.Account.Events[metrics.ShedItem]},
		// CacheDrops left Result with the reliable invalidation-report
		// scheme, the only code that set it. Every run recorded it as 0,
		// so the line stays and no other fingerprint moves.
		{"CacheDrops", uint64(0)},
		{"BroadcastReads", r.Account.Air},
		{"AccessErrorRate", r.Account.AccessErrorRate()},
		{"Retries", r.Retries},
		{"Timeouts", r.Account.Events[metrics.Timeout]},
		{"DegradedReads", r.DegradedReads},
		{"FramesLost", r.FramesLost},
		{"FramesCorrupted", r.FramesCorrupted},
		{"HourlyResponse", hourlyMean},
		{"HourlyQueries", hourlyQueries},
		{"RadioEnergyPerQuery", r.Account.EnergyPerQuery()},
		{"Server", r.Server},
		{"StorageTier", r.StorageTier},
		{"PerClient", r.PerClient},
		{"Events", r.Events},
		{"BackboneBytes", r.BackboneBytes},
		{"BackboneMessages", r.BackboneMessages},
		{"RelayHits", r.RelayHits},
		{"RelayMisses", r.RelayMisses},
		{"RelayedReads", r.RelayedReads},
		{"IRReports", r.IRReports},
		{"IRReportBytes", r.IRReportBytes},
		{"IRMissed", r.Account.Events[metrics.IRMiss]},
		{"ForcedRevals", r.ForcedRevals},
		{"PeerHits", r.PeerHits},
		{"PeerMisses", r.PeerMisses},
	}
}

// renderSansConfig renders goldenFields, one "name:%+v" line each.
func renderSansConfig(res Result) string {
	var b strings.Builder
	for _, f := range goldenFields(res) {
		fmt.Fprintf(&b, "%s:%+v\n", f.name, f.value)
	}
	return b.String()
}

// TestGoldenFieldsCoverResult requires every Result field to be rendered
// by goldenFields or listed in goldenExcluded, Account through every line
// goldenAccountLines names, and no name to be rendered twice.
func TestGoldenFieldsCoverResult(t *testing.T) {
	covered := make(map[string]bool)
	for _, name := range goldenExcluded {
		covered[name] = true
	}
	for _, f := range goldenFields(Result{}) {
		if covered[f.name] {
			t.Errorf("%s is rendered twice, or both rendered and excluded", f.name)
		}
		covered[f.name] = true
	}
	for _, name := range goldenAccountLines {
		if !covered[name] {
			t.Errorf("Account line %s is not rendered by goldenFields", name)
		}
	}
	covered["Account"] = true
	rt := reflect.TypeOf(Result{})
	for i := 0; i < rt.NumField(); i++ {
		if name := rt.Field(i).Name; !covered[name] {
			t.Errorf("Result.%s is neither in goldenFields nor in goldenExcluded", name)
		}
	}
}

// TestEngineLockstep holds the engine in lockstep with the fingerprints
// recorded on the retired goroutine engine.
func TestEngineLockstep(t *testing.T) {
	if *updateGoldens {
		got := make(map[string]goldenHashes)
		for _, tc := range goldenCases() {
			got[tc.name] = runGolden(t, tc.cfg)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("read goldens (run with -update to create): %v", err)
	}
	var want map[string]goldenHashes
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	if len(want) != len(goldenCases()) {
		t.Fatalf("%s pins %d scenarios, the table has %d", goldenFile, len(want), len(goldenCases()))
	}
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			w, ok := want[tc.name]
			if !ok {
				t.Fatalf("no golden for %q (run with -update)", tc.name)
			}
			if got := runGolden(t, tc.cfg); got != w {
				t.Errorf("fingerprint moved:\n got  %+v\n want %+v", got, w)
			}
		})
	}
}
