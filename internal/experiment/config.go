// Package experiment assembles complete simulations from the substrate
// packages and reproduces the paper's six experiments (§5): each Exp*
// function regenerates the rows/series of the corresponding figure.
package experiment

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/broadcast"
	"repro/internal/client"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// HeatKind selects a heat model family.
type HeatKind int

const (
	// SkewedHeat is the paper's SH pattern.
	SkewedHeat HeatKind = iota
	// ChangingSkewedHeat is CSH with a configurable change rate.
	ChangingSkewedHeat
	// CyclicHeat is the LRU-k style cyclic pattern of Experiment #4.
	CyclicHeat
)

// String renders the heat family as tables name it.
func (h HeatKind) String() string {
	switch h {
	case SkewedHeat:
		return "SH"
	case ChangingSkewedHeat:
		return "CSH"
	case CyclicHeat:
		return "cyclic"
	default:
		return "?"
	}
}

// ParseHeat parses a heat family's String form, in any letter case ("sh",
// "csh", "cyclic").
func ParseHeat(s string) (HeatKind, error) {
	for h := SkewedHeat; h <= CyclicHeat; h++ {
		if strings.EqualFold(s, h.String()) {
			return h, nil
		}
	}
	return 0, fmt.Errorf("experiment: unknown heat %q (want sh|csh|cyclic)", s)
}

// ArrivalKind selects the query arrival process.
type ArrivalKind int

const (
	// PoissonArrival is homogeneous Poisson at workload.DefaultPoissonRate.
	PoissonArrival ArrivalKind = iota
	// BurstyArrival is the vehicle-traffic daily profile.
	BurstyArrival
)

// String renders the arrival process as tables name it.
func (a ArrivalKind) String() string {
	if a == BurstyArrival {
		return "Bursty"
	}
	return "Poisson"
}

// ParseArrival parses an arrival process's String form, in any letter case
// ("poisson", "bursty").
func ParseArrival(s string) (ArrivalKind, error) {
	for a := PoissonArrival; a <= BurstyArrival; a++ {
		if strings.EqualFold(s, a.String()) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("experiment: unknown arrival %q (want poisson|bursty)", s)
}

// Config fully describes one simulation run. The zero value is completed by
// Defaults to the paper's Table 1 settings; Validate names what a value may
// not be.
type Config struct {
	Label string
	Seed  uint64

	// Population and horizon.
	NumObjects int
	NumClients int
	Days       float64
	WarmupDays float64

	// Caching.
	Granularity      core.Granularity
	Policy           string // replacement spec, e.g. "ewma-0.5"
	StorageObjects   int    // client storage cache (objects' worth of bytes)
	MemBufferObjects int    // client memory buffer

	// ServerBufferRatio sizes the server buffer as a fraction of the
	// database (0 < r <= 1) — the Experiment #11 axis. Zero keeps the
	// paper's 25% default. See ServerBufferObjects.
	ServerBufferRatio float64

	// StorageDSN, when non-empty, attaches a persistent disk tier behind
	// the server buffer pool: "file:<dir>[?sync=group|always|none]"
	// (internal/storage). Each run owns a per-run subdirectory under the
	// DSN path, wiped at open, so sweeps at any -parallel width never
	// share a log and reruns always start cold. The tier never perturbs
	// simulated results (see server.StorageTier); its measured facts land
	// in Result.StorageTier.
	StorageDSN string

	// Coherence.
	Beta float64

	// Workload.
	QueryKind      workload.Kind
	Heat           HeatKind
	CSHChangeEvery int // CSH change rate in queries
	Arrival        ArrivalKind
	AttrsPerObj    int
	// AttrSkewTheta is the attribute access skew: weights 1/rank^theta.
	// Zero selects workload.DefaultAttrTheta (1), not uniform access.
	AttrSkewTheta float64
	UpdateProb    float64

	// Hybrid caching prefetch threshold position (mu + kappa*sigma); zero
	// is the server's default, kappa = 0.
	PrefetchKappa float64

	// ShedThreshold enables the timeout heuristic of §5.3 when positive:
	// replies queued at the downlink longer than this many seconds drop
	// their prefetched items before delivery.
	ShedThreshold float64

	// Coherence selects the coherence strategy (default: the paper's
	// leases). Invalidation reports are broadcast every
	// coherence.DefaultReportInterval seconds. FixedLease is the lease
	// duration under FixedLeaseStrategy (default
	// coherence.DefaultFixedLease) and may be set under no other strategy.
	Coherence  coherence.Strategy
	FixedLease float64
	// IRWindow is the trailing update window each IR-over-broadcast report
	// covers, in seconds (IRBroadcastStrategy only; default five report
	// periods). Must be at least one report period or consecutive reports
	// leave coverage holes.
	IRWindow float64

	// CoopPeers > 0 enables cooperative client caching: on a connected
	// local miss a client scans up to this many cell peers for valid
	// cached copies — one probe/reply exchange on the cell channels —
	// before paying the server round trip.
	CoopPeers int

	// Tracer receives one record per completed query across all clients
	// (nil = no tracing). Excluded from run manifests: it is live state,
	// not configuration.
	Tracer trace.Tracer `json:"-"`

	// Obs, when non-nil, instruments the run: every entity (channels,
	// fault models, server, clients) registers its gauges and the
	// registry's sampler is attached over the run horizon. Nil (the
	// default) is the zero-cost disabled state. Like Tracer, a registry is
	// shared mutable state, so instrumented batches run serial; and like
	// Tracer it is excluded from run manifests.
	Obs *obs.Registry `json:"-"`

	// SharedHotObjects > 0 gives every client a common interest pool of
	// that many objects, drawn with probability SharedHotProb (default
	// 0.5); the rest of the traffic follows the private SH pattern. This
	// models the multi-client commonality that motivates broadcast
	// dissemination (§1).
	SharedHotObjects int
	SharedHotProb    float64
	// BroadcastAttrs > 0 additionally airs the shared pool's top-N
	// attribute items on a dedicated broadcast channel; clients answer
	// covered reads from the air. Requires SharedHotObjects > 0 and an
	// attribute-granularity scheme (AC/HC).
	BroadcastAttrs int

	// Disconnection (Experiment #6).
	DisconnectedClients int
	DisconnectHours     float64

	// Unreliable channels (Experiment #7, DESIGN.md §9). All zero means a
	// perfect channel: no fault model is built and the simulation is
	// byte-identical to one run before the reliability layer existed.
	LossRate       float64 // Bernoulli per-frame loss probability (Good state)
	CorruptRate    float64 // per-frame corruption probability (CRC-detected)
	BurstFraction  float64 // stationary Bad-state fraction of the Gilbert–Elliott chain
	MeanBadSeconds float64 // mean Bad-state sojourn (default network.DefaultMeanBadSeconds); the Bad state loses every frame

	// Reliability layer (client-side); meaningful only with faults enabled.
	RetryMax     int     // retransmissions per request (default client.DefaultMaxRetries; <0 disables)
	RetryBackoff float64 // base backoff seconds (default client.DefaultBackoffBase)

	// Fleet scale-out (fleet.go). Cells > 1 shards the run across that many
	// cells: each cell owns a range partition of the database (via
	// internal/federation), its own wireless channel pair, and a slice of
	// the client fleet; cross-cell reads travel a fixed backbone. Cells of 0
	// or 1 is the paper's single-server system.
	Cells int
	// RelayObjects > 0 gives every contact server a lease-respecting relay
	// cache of that many remote objects (federation.Config.RelayCacheObjects).
	RelayObjects int
	// Backbone link parameters; zero selects the federation defaults
	// (10 Mbps, 5 ms).
	BackboneBandwidthBps float64
	BackboneLatency      float64
}

// FaultConfig assembles the network-layer fault model parameters. The root
// seed is mixed so fault draws never perturb any other consumer's stream.
func (c Config) FaultConfig() network.FaultConfig {
	return network.FaultConfig{
		LossProb:       c.LossRate,
		CorruptProb:    c.CorruptRate,
		BurstFraction:  c.BurstFraction,
		MeanBadSeconds: c.MeanBadSeconds,
		Seed:           rng.Derive(c.Seed, 0xfa017).Uint64(),
	}
}

// ServerBufferObjects is the server memory buffer of a defaulted c:
// ServerBufferRatio of the database rounded to the nearest object (never
// below one), or Table 1's 25% when the ratio is unset.
func (c Config) ServerBufferObjects() int {
	if c.ServerBufferRatio == 0 {
		return c.NumObjects / 4
	}
	return max(1, int(c.ServerBufferRatio*float64(c.NumObjects)+0.5))
}

// cyclicLoop is the loop pool size of a defaulted c's cyclic heat. The
// pool must (a) fit inside the 20% storage cache with room for noise churn
// and (b) revisit much faster than the noise pool recurs, so the loop is
// genuinely the hot set: 7.5% of the database (150 objects at the paper's
// 2000).
func (c Config) cyclicLoop() int { return c.NumObjects * 3 / 40 }

// Defaults returns cfg with every unset field filled from Table 1.
func Defaults(cfg Config) Config {
	if cfg.NumObjects == 0 {
		cfg.NumObjects = oodb.DefaultNumObjects
	}
	if cfg.NumClients == 0 {
		cfg.NumClients = 10
	}
	if cfg.Days == 0 {
		cfg.Days = 4
	}
	if cfg.Policy == "" {
		cfg.Policy = "ewma-0.5"
	}
	if cfg.StorageObjects == 0 {
		// 20% of the database.
		cfg.StorageObjects = cfg.NumObjects / 5
	}
	if cfg.MemBufferObjects == 0 {
		cfg.MemBufferObjects = client.DefaultMemBufferObjects
	}
	if cfg.CSHChangeEvery == 0 {
		cfg.CSHChangeEvery = 500
	}
	if cfg.AttrsPerObj == 0 {
		cfg.AttrsPerObj = workload.DefaultAttrsPerObject
	}
	if cfg.AttrSkewTheta == 0 {
		cfg.AttrSkewTheta = workload.DefaultAttrTheta
	}
	if cfg.IRWindow == 0 {
		cfg.IRWindow = coherence.DefaultIRWindow
	}
	if cfg.SharedHotObjects > 0 && cfg.SharedHotProb == 0 {
		cfg.SharedHotProb = 0.5
	}
	return cfg
}

// Named validation errors. Every Config.Validate failure wraps one of
// these, so callers branch with errors.Is instead of string matching.
var (
	// ErrOutOfRange marks a field whose value lies outside its domain
	// (negative counts, probabilities beyond [0,1], unknown enum values).
	ErrOutOfRange = errors.New("experiment: option value out of range")
	// ErrConflict marks two fields (or one field against a default) that
	// cannot hold at once — e.g. broadcast without a shared pool, more
	// cells than clients, invalidation reports on a partitioned fleet.
	ErrConflict = errors.New("experiment: conflicting options")
	// ErrBadSpec marks an unparseable specification string, such as an
	// unknown replacement-policy spec.
	ErrBadSpec = errors.New("experiment: unparseable specification")
)

// Validate reports whether Run can execute c: every field inside its
// domain (zero keeps meaning "default", exactly as Defaults reads it) and
// every combination consistent once the defaults are filled in. It is the
// one validator under every entry point — Run, RunBatch, the Exp* sweeps,
// mcsim's flag and manifest paths, and New — and it mirrors the bounds the
// substrate constructors assert (server.New, workload.BuildSchedules, the
// heat models, network.NewFaultModel), so no Config it accepts reaches one
// of their panics. Errors wrap ErrOutOfRange (one field outside its
// domain), ErrConflict (fields that cannot hold at once, defaults
// included), or ErrBadSpec (an unparseable policy spec or storage DSN).
func (c Config) Validate() error {
	bad := func(kind error, format string, args ...any) error {
		return fmt.Errorf(format+": %w", append(args, kind)...)
	}
	inf := math.Inf(1)
	for _, f := range []struct {
		name   string
		v, max float64
	}{
		{"NumObjects", float64(c.NumObjects), oodb.MaxIndexedObjects},
		{"NumClients", float64(c.NumClients), inf},
		{"Days", c.Days, inf},
		{"WarmupDays", c.WarmupDays, inf},
		{"Granularity", float64(c.Granularity), float64(core.HybridCaching)},
		{"StorageObjects", float64(c.StorageObjects), inf},
		{"MemBufferObjects", float64(c.MemBufferObjects), inf},
		{"ServerBufferRatio", c.ServerBufferRatio, 1},
		{"QueryKind", float64(c.QueryKind), float64(workload.Navigational)},
		{"Heat", float64(c.Heat), float64(CyclicHeat)},
		{"CSHChangeEvery", float64(c.CSHChangeEvery), inf},
		{"Arrival", float64(c.Arrival), float64(BurstyArrival)},
		{"AttrsPerObj", float64(c.AttrsPerObj), oodb.NumPrimAttrs},
		{"UpdateProb", c.UpdateProb, 1},
		{"ShedThreshold", c.ShedThreshold, inf},
		{"Coherence", float64(c.Coherence), float64(coherence.IRBroadcastStrategy)},
		{"FixedLease", c.FixedLease, inf},
		{"IRWindow", c.IRWindow, inf},
		{"CoopPeers", float64(c.CoopPeers), inf},
		{"SharedHotObjects", float64(c.SharedHotObjects), inf},
		{"SharedHotProb", c.SharedHotProb, 1},
		{"BroadcastAttrs", float64(c.BroadcastAttrs), oodb.NumPrimAttrs},
		{"DisconnectedClients", float64(c.DisconnectedClients), inf},
		{"DisconnectHours", c.DisconnectHours, 24},
		{"LossRate", c.LossRate, 1},
		{"CorruptRate", c.CorruptRate, 1},
		{"BurstFraction", c.BurstFraction, 1},
		{"MeanBadSeconds", c.MeanBadSeconds, inf},
		{"RetryBackoff", c.RetryBackoff, inf},
		{"Cells", float64(c.Cells), inf},
		{"RelayObjects", float64(c.RelayObjects), inf},
		{"BackboneBandwidthBps", c.BackboneBandwidthBps, inf},
		{"BackboneLatency", c.BackboneLatency, inf},
	} {
		if !(f.v >= 0 && f.v <= f.max) { // written so NaN fails too
			return bad(ErrOutOfRange, "%s %g outside [0, %g]", f.name, f.v, f.max)
		}
	}
	// The remaining checks read the values the run will actually use.
	d := Defaults(c)
	if _, err := replacement.Parse(d.Policy); err != nil {
		return bad(ErrBadSpec, "Policy %q: %v", c.Policy, err)
	}
	if _, err := coherence.Parse(c.Coherence.String()); err != nil {
		// A value inside the range that names no strategy: 1, the retired
		// reliable invalidation-report scheme.
		return bad(ErrBadSpec, "Coherence %d names no strategy (want lease|fixed|irb)", int(c.Coherence))
	}
	if c.StorageDSN != "" {
		if _, err := storage.ParseDSN(c.StorageDSN); err != nil {
			return bad(ErrBadSpec, "StorageDSN %q: %v", c.StorageDSN, err)
		}
	}
	const sel = workload.DefaultSelectivity
	switch {
	case c.BurstFraction == 1:
		return bad(ErrOutOfRange, "BurstFraction 1: the channels would never leave the bad state")
	case d.NumObjects < 2:
		return bad(ErrOutOfRange, "NumObjects %d: a heat model needs at least 2 objects", d.NumObjects)
	case sel > d.NumObjects:
		return bad(ErrConflict, "a query selects %d objects, more than the %d-object database", sel, d.NumObjects)
	case c.SharedHotObjects >= d.NumObjects:
		return bad(ErrConflict, "SharedHotObjects %d must leave part of the %d-object database private",
			c.SharedHotObjects, d.NumObjects)
	case c.SharedHotObjects > 0 && c.SharedHotProb == 1 && c.SharedHotObjects < sel:
		// Every pick would come from the pool, and a query draws distinct
		// objects until it has sel of them: it would never finish.
		return bad(ErrConflict, "SharedHotProb 1 confines queries of %d objects to a pool of %d", sel, c.SharedHotObjects)
	case c.BroadcastAttrs > 0 && c.SharedHotObjects == 0:
		return bad(ErrConflict, "BroadcastAttrs %d airs the shared pool and needs SharedHotObjects", c.BroadcastAttrs)
	case c.Heat == CyclicHeat && c.SharedHotObjects == 0 && d.cyclicLoop() < sel/4:
		return bad(ErrConflict, "cyclic heat over %d objects loops over %d, fewer than the %d loop objects a query reads",
			d.NumObjects, d.cyclicLoop(), sel/4)
	case c.Cells > d.NumClients:
		return bad(ErrConflict, "Cells %d exceeds the %d-client fleet", c.Cells, d.NumClients)
	case c.DisconnectedClients > d.NumClients:
		return bad(ErrConflict, "DisconnectedClients %d of a %d-client fleet", c.DisconnectedClients, d.NumClients)
	case c.Cells > 1 && c.StorageDSN != "":
		return bad(ErrConflict, "StorageDSN %q models one origin server, undefined for Cells %d", c.StorageDSN, c.Cells)
	case d.IRWindow < coherence.DefaultReportInterval:
		return bad(ErrConflict, "IRWindow %g shorter than the %g s report period would drop updates from every report",
			d.IRWindow, coherence.DefaultReportInterval)
	case c.CoopPeers > 0 && c.Granularity == core.NoCache:
		return bad(ErrConflict, "CoopPeers %d needs caching clients, not NC", c.CoopPeers)
	case c.FixedLease > 0 && c.Coherence != coherence.FixedLeaseStrategy:
		return bad(ErrConflict, "FixedLease %g is read only under fixed-lease coherence, not %s",
			c.FixedLease, c.Coherence)
	}
	return nil
}

// Horizon returns the simulated duration in seconds.
func (c Config) Horizon() float64 { return c.Days * workload.SecondsPerDay }

// String renders a compact run identifier.
func (c Config) String() string {
	if c.Label != "" {
		return c.Label
	}
	return fmt.Sprintf("%s/%s/%s/U=%.2g", c.Granularity, c.Policy, c.QueryKind, c.UpdateProb)
}

// Result carries the measurements of one run.
type Result struct {
	Config Config

	// Account is the clients' accounts pooled in client order, each behind
	// its warm-up gate: every read, query, event and joule measured.
	// setAccount reads eleven of the fields below off it: the three
	// ratios, the query counts, Retries, DegradedReads, ForcedRevals,
	// PeerHits and PeerMisses.
	Account metrics.Account

	HitRatio     float64
	MeanResponse float64
	ErrorRate    float64

	QueriesIssued uint64
	QueriesLocal  uint64
	QueriesRemote uint64

	UplinkUtilization   float64
	DownlinkUtilization float64
	DownlinkMeanWait    float64

	// Reliability-layer measurements (zero on perfect channels).
	Retries         uint64 // retransmissions issued across all clients
	DegradedReads   uint64 // reads served from stale copies after retry exhaustion
	FramesLost      uint64 // frames dropped by the channel fault models
	FramesCorrupted uint64 // frames rejected by the receiver CRC

	Server server.Stats

	// StorageTier carries the persistent disk tier's end-of-run facts
	// (zero when Config.StorageDSN was unset).
	StorageTier TierStats

	PerClient []PerClient

	// Events counts the simulation events executed (summed across all cell
	// kernels in a fleet run) — the numerator of wall-clock throughput.
	Events uint64

	// Fleet measurements (zero on single-cell runs): cumulative backbone
	// traffic between server nodes and the contact servers' relay-cache
	// effectiveness, summed across cells.
	BackboneBytes    uint64
	BackboneMessages uint64
	RelayHits        uint64
	RelayMisses      uint64
	RelayedReads     uint64

	// IR-over-broadcast measurements (IRBroadcastStrategy only; summed
	// across cells in a fleet run).
	IRReports     uint64 // reports pushed on the dedicated broadcast channel
	IRReportBytes uint64 // cumulative report wire bytes
	ForcedRevals  uint64 // whole-cache lease voids after unrecoverable report gaps

	// Cooperative-lookup measurements (CoopPeers > 0 only).
	PeerHits   uint64 // reads served from a peer's cache
	PeerMisses uint64 // connected local misses that still went to the server
}

// AccountResult returns the Result of a run on cfg whose pooled client
// account is a: the account and the figures read off it, every other
// measurement zero. A live replay reports through it.
func AccountResult(cfg Config, a metrics.Account) Result {
	r := Result{Config: cfg}
	r.setAccount(a)
	return r
}

// setAccount stores the pooled account and the eleven figures read off it.
func (r *Result) setAccount(a metrics.Account) {
	r.Account = a
	r.HitRatio = a.HitRatio()
	r.MeanResponse = a.MeanResponse()
	r.ErrorRate = a.ErrorRate()
	r.QueriesIssued = a.Queries
	r.QueriesLocal = a.Local
	r.QueriesRemote = a.Remote
	r.Retries = a.Events[metrics.Retry]
	r.DegradedReads = a.Degraded
	r.ForcedRevals = a.Events[metrics.ForcedReval]
	r.PeerHits = a.Peer
	r.PeerMisses = a.Events[metrics.PeerMiss]
}

// TierStats is the persistent storage tier's end-of-run snapshot. Gets,
// Puts, and Errors are deterministic workload facts (every run starts on
// a cold tier, so the same config reproduces the same counts at any
// -parallel width); Keys, DiskBytes, and the wall-clock latency quantiles
// are measured disk facts — manifest and stderr material, never
// deterministic-table material.
type TierStats struct {
	DSN    string
	Gets   uint64 // buffer misses served by an existing tier record
	Puts   uint64 // objects materialized on first touch
	Errors uint64 // tier I/O failures (run continued on the model)

	Keys      int
	DiskBytes int64

	GetP50ms, GetP99ms float64
	PutP50ms, PutP99ms float64
}

// PerClient is a per-client measurement snapshot.
type PerClient struct {
	HitRatio     float64
	ErrorRate    float64
	MeanResponse float64
	Queries      uint64
}

// openStorageTier opens the run's persistent tier, or nil when no DSN is
// configured. Every run gets its own cold subdirectory under the DSN
// path — keyed by label and seed, wiped before open — so sweep runs at
// any -parallel width never share a log, and a rerun of the same config
// reproduces the same deterministic tier counters. A disk that cannot be
// wiped or opened panics: Run has no error to return it through.
func openStorageTier(cfg Config) *storage.Store {
	if cfg.StorageDSN == "" {
		return nil
	}
	opts, _ := storage.ParseDSN(cfg.StorageDSN) // Validate parsed it
	opts.Path = filepath.Join(opts.Path, tierRunDir(cfg))
	if err := os.RemoveAll(opts.Path); err != nil {
		panic(fmt.Sprintf("experiment: storage tier: %v", err))
	}
	st, err := storage.Open(opts)
	if err != nil {
		panic(fmt.Sprintf("experiment: storage tier: %v", err))
	}
	return st
}

// tierRunDir renders the per-run tier subdirectory from the run identity,
// restricted to filename-safe characters.
func tierRunDir(cfg Config) string {
	name := fmt.Sprintf("%s-seed%d", cfg.String(), cfg.Seed)
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// clientEnv bundles the substrate one group of clients attaches to: the
// kernel, the backend serving their queries (the server itself in a
// one-cell run, the cell's federation contact server otherwise), the cell's channel pair and
// fault models, and the run-wide schedules, broadcast program, and policy
// factory.
type clientEnv struct {
	kernel     *sim.Kernel
	cfg        Config
	db         *oodb.Database
	backend    client.Backend
	up, down   *network.Channel
	upFaults   *network.FaultModel
	downFaults *network.FaultModel
	schedules  []*network.Schedule
	program    *broadcast.Program
	policy     func() replacement.Policy
}

// buildClients constructs and starts the mobile clients with global IDs in
// [lo, hi). Clients keep their fleet-global ID in every RNG derivation and
// schedule lookup, so a client's private streams do not depend on how the
// fleet is sliced into cells. They all run on env.kernel's goroutine, so
// they share one install scratch.
func buildClients(env clientEnv, lo, hi int) ([]*client.Client, []*metrics.Client) {
	cfg := env.cfg
	scratch := new(core.Scratch)
	clients := make([]*client.Client, 0, hi-lo)
	clientMetrics := make([]*metrics.Client, 0, hi-lo)
	for i := lo; i < hi; i++ {
		// The workload substreams come from the shared twin constructor so
		// live replay (internal/serve) sees the exact same draws.
		w := NewClientWorkload(cfg, env.db, i)
		gen, arrival := w.Gen, w.Arrival
		m := &metrics.Client{Warmup: cfg.WarmupDays * workload.SecondsPerDay}
		clientMetrics = append(clientMetrics, m)

		var pol replacement.Policy
		if cfg.Granularity != core.NoCache {
			pol = env.policy()
		}
		cl := client.New(client.Config{
			ID:               i,
			Kernel:           env.kernel,
			Server:           env.backend,
			Up:               env.up,
			Down:             env.down,
			Granularity:      cfg.Granularity,
			Policy:           pol,
			StorageBytes:     cfg.StorageObjects * core.ItemCost(oodb.ObjectItem(0)),
			MemBufferObjects: cfg.MemBufferObjects,
			Scratch:          scratch,
			Gen:              gen,
			Arrival:          arrival,
			Schedule:         env.schedules[i],
			Metrics:          m,
			Seed:             rng.Derive(cfg.Seed, 0xc0+uint64(i)).Uint64(),
			Horizon:          cfg.Horizon(),
			ShedThreshold:    cfg.ShedThreshold,
			Coherence:        cfg.Coherence,
			FixedLease:       cfg.FixedLease,
			IRWindow:         cfg.IRWindow,
			Tracer:           cfg.Tracer,
			Broadcast:        env.program,
			UpFaults:         env.upFaults,
			DownFaults:       env.downFaults,
			Retry: client.RetryConfig{
				MaxRetries:  cfg.RetryMax,
				BackoffBase: cfg.RetryBackoff,
			},
		})
		clients = append(clients, cl)
		cl.Start()
	}
	// Cooperative lookup scopes to the cell: a client's peer group is
	// exactly the clients sharing its channel pair.
	if cfg.CoopPeers > 0 {
		for _, cl := range clients {
			cl.SetPeers(clients, cfg.CoopPeers)
		}
	}
	return clients, clientMetrics
}

// reporter is the invalidation-report broadcaster's loop: every
// interval seconds, until the horizon, it calls report for the frame's
// wire size, pays for the frame's airtime on ch, and then calls deliver at
// the time the frame has been received.
type reporter struct {
	interval, horizon float64
	ch                *network.Channel
	report            func(now float64) (bytes int)
	deliver           func(now float64)

	pc    uint8
	send  network.SendState
	bytes int
}

// reporter phases.
const (
	rpWait   uint8 = iota // wait out the period
	rpReport              // past the horizon? else assemble the frame
	rpSend                // frame on the air; then deliver
)

// Step implements sim.Stepper.
func (r *reporter) Step(m *sim.Machine) {
	for {
		switch r.pc {
		case rpWait:
			r.pc = rpReport
			m.Hold(r.interval)
			return
		case rpReport:
			if m.Now() > r.horizon {
				m.Finish()
				return
			}
			r.bytes = r.report(m.Now())
			r.pc = rpSend
		case rpSend:
			if !r.ch.SendStep(m, &r.send, r.bytes) {
				return
			}
			r.deliver(m.Now())
			r.pc = rpWait
		}
	}
}

// irbState carries an IR-over-broadcast broadcaster's run totals for the
// Result merge.
type irbState struct {
	reports     uint64
	reportBytes uint64
}

// startIRBBroadcaster spawns the IR-over-broadcast machine for one cell:
// every coherence.DefaultReportInterval seconds it assembles the report
// naming the items written during the trailing IRWindow (fed by the
// server's write observer), pays for its airtime on the dedicated
// broadcast channel, and delivers it to every connected client in the
// cell. Reception is judged per client against the channel's fault model
// in client order — a lost or corrupted frame becomes MissIRBroadcast, the
// forced-revalidation trigger. Disconnected clients simply have their
// radios off. All draws happen inside the kernel's event loop, so delivery
// outcomes are independent of -parallel.
func startIRBBroadcaster(k *sim.Kernel, cfg Config, window *broadcast.UpdateWindow,
	ch *network.Channel, faults *network.FaultModel,
	clients []*client.Client, schedules []*network.Schedule) *irbState {

	st := &irbState{}
	var items []oodb.Item
	var size int
	k.SpawnMachine("irb-broadcast", &reporter{
		interval: coherence.DefaultReportInterval, horizon: cfg.Horizon(), ch: ch,
		report: func(now float64) int {
			items = window.Report(now)
			size = broadcast.ReportBytes(len(items))
			return size
		},
		deliver: func(now float64) {
			st.reports++
			st.reportBytes += uint64(size)
			for i, cl := range clients {
				if !schedules[i].Connected(now) {
					continue
				}
				switch faults.Transmit(now) {
				case network.FrameDelivered:
					cl.ApplyIRBroadcast(now, items, size)
				case network.FrameCorrupted:
					// Received in full, rejected by the CRC: energy spent.
					cl.MissIRBroadcast(now, coherence.DefaultReportInterval, size)
				default: // FrameLost
					cl.MissIRBroadcast(now, coherence.DefaultReportInterval, 0)
				}
			}
		},
	})
	return st
}

// buildHeat instantiates the per-client heat model; each client gets its
// own hot set ("we ensure that the hot objects of each client are not
// identical", §4).
func buildHeat(cfg Config, clientID int) workload.HeatModel {
	seed := rng.Derive(cfg.Seed, 0x8ea7000+uint64(clientID)).Uint64()
	if cfg.SharedHotObjects > 0 {
		return workload.NewSharedSkewedHeat(cfg.NumObjects, cfg.Seed, seed,
			cfg.SharedHotObjects, cfg.SharedHotProb)
	}
	switch cfg.Heat {
	case SkewedHeat:
		return workload.NewSkewedHeat(cfg.NumObjects, seed)
	case ChangingSkewedHeat:
		return workload.NewChangingSkewedHeat(cfg.NumObjects, seed, cfg.CSHChangeEvery)
	case CyclicHeat:
		return workload.NewCyclicHeat(workload.CyclicConfig{
			NumObjects:   cfg.NumObjects,
			LoopObjects:  cfg.cyclicLoop(),
			LoopPerQuery: workload.DefaultSelectivity / 4,
			Burst:        2,
			Seed:         seed,
		})
	default:
		panic(fmt.Sprintf("experiment: unknown heat kind %d", cfg.Heat))
	}
}

// HeatName renders the heat configuration for table headers.
func (c Config) HeatName() string { return heatTag(c.Heat, c.CSHChangeEvery) }
