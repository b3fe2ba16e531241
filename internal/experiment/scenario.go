package experiment

import (
	"errors"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replacement"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Named validation errors. Every option failure wraps one of these, so
// callers branch with errors.Is instead of string matching.
var (
	// ErrOutOfRange marks an option whose value lies outside its domain
	// (negative counts, probabilities beyond [0,1], unknown enum values).
	ErrOutOfRange = errors.New("experiment: option value out of range")
	// ErrConflict marks two options (or one option against a default) that
	// cannot hold at once — e.g. broadcast without a shared pool, more
	// cells than clients, invalidation reports on a partitioned fleet.
	ErrConflict = errors.New("experiment: conflicting options")
	// ErrBadSpec marks an unparseable specification string, such as an
	// unknown replacement-policy spec.
	ErrBadSpec = errors.New("experiment: unparseable specification")
)

// Scenario is the validated front door to the simulator: construct one
// with New and a list of options, then call Run. Unlike the bare
// Config/Defaults path — which patches zero values silently and panics on
// impossible combinations mid-run — New rejects bad input up front with
// errors that identify the offending option.
//
//	sc, err := experiment.New(
//	    experiment.WithFleet(1000, 8),
//	    experiment.WithGranularity(core.HybridCaching),
//	    experiment.WithCoherence(coherence.LeaseStrategy),
//	)
//	if err != nil { ... }
//	res := sc.Run()
//
// Defaults + Run(Config) remain as the thin compatibility shim beneath it;
// Scenario adds no behavior of its own beyond validation and dispatch.
type Scenario struct {
	cfg Config

	setClients      bool
	setCells        bool
	setObjects      bool
	setServerBuffer bool
	setBufferRatio  bool
}

// Option mutates a Scenario under construction; it returns an error
// wrapping ErrOutOfRange, ErrConflict, or ErrBadSpec when the value is
// unusable.
type Option func(*Scenario) error

// New builds a Scenario from the paper's Table 1 defaults plus the given
// options, validating each option and then the combination. It is the
// redesigned entry point: every error a bare Run would surface as a panic
// deep in construction comes back here, named.
func New(opts ...Option) (*Scenario, error) {
	s := &Scenario{}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// validate cross-checks the assembled configuration against the defaults
// that will fill its unset fields.
func (s *Scenario) validate() error {
	cfg := s.cfg
	if cfg.Policy != "" {
		if _, err := replacement.Parse(cfg.Policy); err != nil {
			return fmt.Errorf("WithPolicy(%q): %w: %v", cfg.Policy, ErrBadSpec, err)
		}
	}
	if cfg.BroadcastAttrs > 0 && cfg.SharedHotObjects == 0 {
		return fmt.Errorf("WithBroadcastAttrs(%d) requires WithSharedPool: %w",
			cfg.BroadcastAttrs, ErrConflict)
	}
	if cfg.Cells > 1 && cfg.Coherence == coherence.InvalidationReportStrategy {
		return fmt.Errorf("invalidation reports are cell-wide broadcast, undefined for %d cells: %w",
			cfg.Cells, ErrConflict)
	}
	if cfg.IRWindow > 0 {
		interval := cfg.ReportInterval
		if interval == 0 {
			interval = coherence.DefaultReportInterval
		}
		if cfg.IRWindow < interval {
			return fmt.Errorf("WithIRWindow(%g) shorter than the %g s report interval would drop updates from every report: %w",
				cfg.IRWindow, interval, ErrConflict)
		}
	}
	if cfg.CoopPeers > 0 && cfg.Granularity == core.NoCache {
		return fmt.Errorf("WithCooperative(%d) needs caching clients, not NC: %w",
			cfg.CoopPeers, ErrConflict)
	}
	clients := cfg.NumClients
	if clients == 0 {
		clients = Defaults(Config{}).NumClients
	}
	if cfg.Cells > clients {
		return fmt.Errorf("WithCells(%d) exceeds the %d-client fleet: %w",
			cfg.Cells, clients, ErrConflict)
	}
	if cfg.DisconnectedClients > clients {
		return fmt.Errorf("WithDisconnection: %d disconnected of %d clients: %w",
			cfg.DisconnectedClients, clients, ErrConflict)
	}
	if cfg.ServerBufferRatio < 0 || cfg.ServerBufferRatio > 1 {
		return fmt.Errorf("WithBufferRatio(%g): %w", cfg.ServerBufferRatio, ErrOutOfRange)
	}
	if cfg.ServerBufferRatio > 0 && cfg.ServerBufferObjects > 0 {
		// A replayed manifest records the resolved config — the ratio
		// next to the exact buffer size it derived. That round trip is
		// consistent; any other pairing is two answers to one question.
		objects := cfg.NumObjects
		if objects == 0 {
			objects = Defaults(Config{}).NumObjects
		}
		if cfg.ServerBufferObjects != ratioBuffer(cfg.ServerBufferRatio, objects) {
			return fmt.Errorf("WithBufferRatio(%g) and WithServerBuffer(%d) both size the buffer: %w",
				cfg.ServerBufferRatio, cfg.ServerBufferObjects, ErrConflict)
		}
	}
	if cfg.StorageDSN != "" {
		if _, err := storage.ParseDSN(cfg.StorageDSN); err != nil {
			return fmt.Errorf("WithStorage(%q): %w: %v", cfg.StorageDSN, ErrBadSpec, err)
		}
		if cfg.Cells > 1 {
			return fmt.Errorf("WithStorage(%q) models one origin server, undefined for %d cells: %w",
				cfg.StorageDSN, cfg.Cells, ErrConflict)
		}
	}
	return nil
}

// Config returns the fully defaulted Config the scenario will run — the
// exact value Run would echo back in Result.Config.
func (s *Scenario) Config() Config { return Defaults(s.cfg) }

// Run executes the scenario: the fleet engine when more than one cell was
// requested, the paper's single-cell system otherwise.
func (s *Scenario) Run() Result { return RunFleet(s.cfg) }

// Replicate runs the scenario n times with consecutive seeds on the worker
// pool and returns the replication summary (see Replicate).
func (s *Scenario) Replicate(n int) *Replicated { return Replicate(s.cfg, n) }

// --- Identity, population, horizon -----------------------------------

// WithLabel names the run in tables and panic annotations.
func WithLabel(label string) Option {
	return func(s *Scenario) error {
		s.cfg.Label = label
		return nil
	}
}

// WithSeed sets the root seed every substream derives from.
func WithSeed(seed uint64) Option {
	return func(s *Scenario) error {
		s.cfg.Seed = seed
		return nil
	}
}

// WithHorizonDays sets the simulated duration in days (default 4, §5).
func WithHorizonDays(days float64) Option {
	return func(s *Scenario) error {
		if days <= 0 {
			return fmt.Errorf("WithHorizonDays(%g): %w", days, ErrOutOfRange)
		}
		s.cfg.Days = days
		return nil
	}
}

// WithWarmupDays discards measurements before the given day mark.
func WithWarmupDays(days float64) Option {
	return func(s *Scenario) error {
		if days < 0 {
			return fmt.Errorf("WithWarmupDays(%g): %w", days, ErrOutOfRange)
		}
		s.cfg.WarmupDays = days
		return nil
	}
}

// WithObjects sets the database size in objects (default 2000). It
// conflicts with a WithDatabaseSize that named a different size.
func WithObjects(n int) Option {
	return func(s *Scenario) error {
		if n < 1 {
			return fmt.Errorf("WithObjects(%d): %w", n, ErrOutOfRange)
		}
		if s.setObjects && s.cfg.NumObjects != n {
			return fmt.Errorf("WithObjects(%d) after objects=%d was set: %w",
				n, s.cfg.NumObjects, ErrConflict)
		}
		s.cfg.NumObjects = n
		s.setObjects = true
		return nil
	}
}

// WithClients sets the fleet size (default 10, the paper's population).
// It conflicts with a WithFleet that named a different size.
func WithClients(n int) Option {
	return func(s *Scenario) error {
		if n < 1 {
			return fmt.Errorf("WithClients(%d): %w", n, ErrOutOfRange)
		}
		if s.setClients && s.cfg.NumClients != n {
			return fmt.Errorf("WithClients(%d) after clients=%d was set: %w",
				n, s.cfg.NumClients, ErrConflict)
		}
		s.cfg.NumClients = n
		s.setClients = true
		return nil
	}
}

// WithCells shards the run across that many cells on the fleet engine
// (1 = the paper's single-cell system). It conflicts with a WithFleet that
// named a different cell count.
func WithCells(n int) Option {
	return func(s *Scenario) error {
		if n < 1 {
			return fmt.Errorf("WithCells(%d): %w", n, ErrOutOfRange)
		}
		if s.setCells && s.cfg.Cells != n {
			return fmt.Errorf("WithCells(%d) after cells=%d was set: %w",
				n, s.cfg.Cells, ErrConflict)
		}
		s.cfg.Cells = n
		s.setCells = true
		return nil
	}
}

// WithFleet sets fleet size and cell count together — the fleet-scale
// shorthand: WithFleet(1000, 8) is WithClients(1000) plus WithCells(8).
func WithFleet(clients, cells int) Option {
	return func(s *Scenario) error {
		if cells > clients {
			return fmt.Errorf("WithFleet(%d, %d): more cells than clients: %w",
				clients, cells, ErrConflict)
		}
		if err := WithClients(clients)(s); err != nil {
			return err
		}
		return WithCells(cells)(s)
	}
}

// WithRelayCache gives every contact server a lease-respecting relay cache
// of that many remote objects (fleet runs only; 0 disables).
func WithRelayCache(objects int) Option {
	return func(s *Scenario) error {
		if objects < 0 {
			return fmt.Errorf("WithRelayCache(%d): %w", objects, ErrOutOfRange)
		}
		s.cfg.RelayObjects = objects
		return nil
	}
}

// WithBackbone overrides the inter-cell backbone link: bandwidth in
// bits/second and per-message latency in seconds (0, 0 keeps the
// federation defaults of 10 Mbps and 5 ms).
func WithBackbone(bandwidthBps, latencySeconds float64) Option {
	return func(s *Scenario) error {
		if bandwidthBps < 0 || latencySeconds < 0 {
			return fmt.Errorf("WithBackbone(%g, %g): %w", bandwidthBps, latencySeconds, ErrOutOfRange)
		}
		s.cfg.BackboneBandwidthBps = bandwidthBps
		s.cfg.BackboneLatency = latencySeconds
		return nil
	}
}

// --- Caching ----------------------------------------------------------

// WithGranularity selects the caching granularity (NC/AC/OC/HC).
func WithGranularity(g core.Granularity) Option {
	return func(s *Scenario) error {
		for _, known := range core.Granularities() {
			if g == known {
				s.cfg.Granularity = g
				return nil
			}
		}
		return fmt.Errorf("WithGranularity(%d): %w", g, ErrOutOfRange)
	}
}

// WithPolicy selects the replacement policy by spec (e.g. "ewma-0.5",
// "lru-3", "win-10"); the spec is parsed immediately.
func WithPolicy(spec string) Option {
	return func(s *Scenario) error {
		if _, err := replacement.Parse(spec); err != nil {
			return fmt.Errorf("WithPolicy(%q): %w: %v", spec, ErrBadSpec, err)
		}
		s.cfg.Policy = spec
		return nil
	}
}

// WithClientCache sets the client cache sizes: storage in objects' worth
// of bytes and the in-memory buffer in objects (0 keeps either default).
// (Formerly WithStorage, which now names the server's persistent tier.)
func WithClientCache(storageObjects, memBufferObjects int) Option {
	return func(s *Scenario) error {
		if storageObjects < 0 || memBufferObjects < 0 {
			return fmt.Errorf("WithClientCache(%d, %d): %w",
				storageObjects, memBufferObjects, ErrOutOfRange)
		}
		s.cfg.StorageObjects = storageObjects
		s.cfg.MemBufferObjects = memBufferObjects
		return nil
	}
}

// WithServerBuffer sets the server memory buffer in objects (split across
// partitions on a fleet; default 25% of the database). It conflicts with
// a WithBufferRatio that already sized the buffer.
func WithServerBuffer(objects int) Option {
	return func(s *Scenario) error {
		if objects < 0 {
			return fmt.Errorf("WithServerBuffer(%d): %w", objects, ErrOutOfRange)
		}
		if s.setBufferRatio {
			return fmt.Errorf("WithServerBuffer(%d) after WithBufferRatio(%g): %w",
				objects, s.cfg.ServerBufferRatio, ErrConflict)
		}
		s.cfg.ServerBufferObjects = objects
		s.setServerBuffer = objects != 0
		return nil
	}
}

// WithDatabaseSize sets the database size in objects — the same knob as
// WithObjects under the name Experiment #11's size sweep uses. The two
// conflict when they name different sizes.
func WithDatabaseSize(n int) Option {
	return func(s *Scenario) error {
		if n < 1 {
			return fmt.Errorf("WithDatabaseSize(%d): %w", n, ErrOutOfRange)
		}
		if s.setObjects && s.cfg.NumObjects != n {
			return fmt.Errorf("WithDatabaseSize(%d) after objects=%d was set: %w",
				n, s.cfg.NumObjects, ErrConflict)
		}
		s.cfg.NumObjects = n
		s.setObjects = true
		return nil
	}
}

// WithBufferRatio sizes the server buffer as a fraction of the database
// (0 < r <= 1), so a size sweep keeps buffer pressure constant. It
// conflicts with a WithServerBuffer that already fixed an object count.
func WithBufferRatio(r float64) Option {
	return func(s *Scenario) error {
		if r <= 0 || r > 1 {
			return fmt.Errorf("WithBufferRatio(%g): %w", r, ErrOutOfRange)
		}
		if s.setServerBuffer {
			return fmt.Errorf("WithBufferRatio(%g) after WithServerBuffer(%d): %w",
				r, s.cfg.ServerBufferObjects, ErrConflict)
		}
		s.cfg.ServerBufferRatio = r
		s.setBufferRatio = true
		return nil
	}
}

// WithStorage puts a real persistent tier behind the simulated server's
// buffer pool, named by DSN ("file:<dir>[?sync=group|always|none]"). The
// DSN is parsed immediately; each run gets a cold per-run subdirectory
// under the path. Simulated timing is unchanged — the tier is a measured
// side effect reported in Result.StorageTier.
func WithStorage(dsn string) Option {
	return func(s *Scenario) error {
		if dsn != "" {
			if _, err := storage.ParseDSN(dsn); err != nil {
				return fmt.Errorf("WithStorage(%q): %w: %v", dsn, ErrBadSpec, err)
			}
		}
		s.cfg.StorageDSN = dsn
		return nil
	}
}

// WithPrefetchKappa positions the hybrid-caching prefetch threshold at
// mu + kappa*sigma of the attribute-heat distribution.
func WithPrefetchKappa(kappa float64) Option {
	return func(s *Scenario) error {
		s.cfg.PrefetchKappa = kappa
		return nil
	}
}

// WithShedThreshold enables the §5.3 timeout heuristic: replies queued at
// the downlink longer than this many seconds shed their prefetched items.
func WithShedThreshold(seconds float64) Option {
	return func(s *Scenario) error {
		if seconds < 0 {
			return fmt.Errorf("WithShedThreshold(%g): %w", seconds, ErrOutOfRange)
		}
		s.cfg.ShedThreshold = seconds
		return nil
	}
}

// --- Workload ---------------------------------------------------------

// WithQueryKind selects associative (AQ) or navigational (NQ) queries.
func WithQueryKind(k workload.Kind) Option {
	return func(s *Scenario) error {
		if k != workload.Associative && k != workload.Navigational {
			return fmt.Errorf("WithQueryKind(%d): %w", k, ErrOutOfRange)
		}
		s.cfg.QueryKind = k
		return nil
	}
}

// WithHeat selects the heat model family (SH, CSH, cyclic).
func WithHeat(h HeatKind) Option {
	return func(s *Scenario) error {
		switch h {
		case SkewedHeat, ChangingSkewedHeat, CyclicHeat:
			s.cfg.Heat = h
			return nil
		}
		return fmt.Errorf("WithHeat(%d): %w", h, ErrOutOfRange)
	}
}

// WithCSHChangeEvery sets the CSH hot-set change rate in queries.
func WithCSHChangeEvery(queries int) Option {
	return func(s *Scenario) error {
		if queries < 1 {
			return fmt.Errorf("WithCSHChangeEvery(%d): %w", queries, ErrOutOfRange)
		}
		s.cfg.CSHChangeEvery = queries
		return nil
	}
}

// WithArrival selects the arrival process (Poisson or the Bursty daily
// profile).
func WithArrival(a ArrivalKind) Option {
	return func(s *Scenario) error {
		if a != PoissonArrival && a != BurstyArrival {
			return fmt.Errorf("WithArrival(%d): %w", a, ErrOutOfRange)
		}
		s.cfg.Arrival = a
		return nil
	}
}

// WithPoissonRate sets the per-client query rate in queries/second.
func WithPoissonRate(rate float64) Option {
	return func(s *Scenario) error {
		if rate <= 0 {
			return fmt.Errorf("WithPoissonRate(%g): %w", rate, ErrOutOfRange)
		}
		s.cfg.PoissonRate = rate
		return nil
	}
}

// WithUpdateProb sets the server-side update probability U in [0, 1].
func WithUpdateProb(u float64) Option {
	return func(s *Scenario) error {
		if u < 0 || u > 1 {
			return fmt.Errorf("WithUpdateProb(%g): %w", u, ErrOutOfRange)
		}
		s.cfg.UpdateProb = u
		return nil
	}
}

// WithSharedPool gives every client a common interest pool: objects is the
// pool size, prob the probability a pick comes from it.
func WithSharedPool(objects int, prob float64) Option {
	return func(s *Scenario) error {
		if objects < 0 || prob < 0 || prob > 1 {
			return fmt.Errorf("WithSharedPool(%d, %g): %w", objects, prob, ErrOutOfRange)
		}
		s.cfg.SharedHotObjects = objects
		s.cfg.SharedHotProb = prob
		return nil
	}
}

// WithBroadcastAttrs airs the shared pool's top-N attribute items on a
// dedicated broadcast channel (requires WithSharedPool).
func WithBroadcastAttrs(n int) Option {
	return func(s *Scenario) error {
		if n < 0 {
			return fmt.Errorf("WithBroadcastAttrs(%d): %w", n, ErrOutOfRange)
		}
		s.cfg.BroadcastAttrs = n
		return nil
	}
}

// --- Coherence --------------------------------------------------------

// WithCoherence selects the coherence strategy, either by enum value or
// by name — WithCoherence(coherence.IRBroadcastStrategy) and
// WithCoherence("irb") are the same option (names as in coherence.Parse).
func WithCoherence[T coherence.Strategy | string](strategy T) Option {
	return func(s *Scenario) error {
		switch v := any(strategy).(type) {
		case coherence.Strategy:
			switch v {
			case coherence.LeaseStrategy, coherence.FixedLeaseStrategy,
				coherence.InvalidationReportStrategy, coherence.IRBroadcastStrategy:
				s.cfg.Coherence = v
				return nil
			}
			return fmt.Errorf("WithCoherence(%d): %w", v, ErrOutOfRange)
		case string:
			strat, ok := coherence.Parse(v)
			if !ok {
				return fmt.Errorf("WithCoherence(%q): %w", v, ErrOutOfRange)
			}
			s.cfg.Coherence = strat
			return nil
		}
		panic("unreachable")
	}
}

// WithBeta sets the staleness tolerance beta of the paper's lease scheme.
func WithBeta(beta float64) Option {
	return func(s *Scenario) error {
		if beta < 0 {
			return fmt.Errorf("WithBeta(%g): %w", beta, ErrOutOfRange)
		}
		s.cfg.Beta = beta
		return nil
	}
}

// WithFixedLease sets the fixed-lease duration in seconds (used with
// coherence.FixedLeaseStrategy).
func WithFixedLease(seconds float64) Option {
	return func(s *Scenario) error {
		if seconds < 0 {
			return fmt.Errorf("WithFixedLease(%g): %w", seconds, ErrOutOfRange)
		}
		s.cfg.FixedLease = seconds
		return nil
	}
}

// WithReportInterval sets the invalidation-report broadcast period,
// shared by the legacy reliable-IR scheme and the broadcast-IR scheme.
func WithReportInterval(seconds float64) Option {
	return func(s *Scenario) error {
		if seconds <= 0 {
			return fmt.Errorf("WithReportInterval(%g): %w", seconds, ErrOutOfRange)
		}
		s.cfg.ReportInterval = seconds
		return nil
	}
}

// WithIRWindow sets the broadcast-IR history window W in seconds: each
// report names the items updated in the last W seconds, so a client
// silent longer than W must revalidate its whole cache. Used with
// coherence.IRBroadcastStrategy; must be at least one report interval.
func WithIRWindow(seconds float64) Option {
	return func(s *Scenario) error {
		if seconds <= 0 {
			return fmt.Errorf("WithIRWindow(%g): %w", seconds, ErrOutOfRange)
		}
		s.cfg.IRWindow = seconds
		return nil
	}
}

// WithCooperative enables cooperative client caching: on a connected
// local miss the client scans up to maxPeers cell peers for a valid
// cached copy before paying the server round trip (0 disables).
func WithCooperative(maxPeers int) Option {
	return func(s *Scenario) error {
		if maxPeers < 0 {
			return fmt.Errorf("WithCooperative(%d): %w", maxPeers, ErrOutOfRange)
		}
		s.cfg.CoopPeers = maxPeers
		return nil
	}
}

// --- Disruption: disconnection and unreliable channels ----------------

// WithDisconnection disconnects `clients` of the fleet for `hours` each
// simulated day (Experiment #6's D × V grid).
func WithDisconnection(clients int, hours float64) Option {
	return func(s *Scenario) error {
		if clients < 0 || hours < 0 || hours > 24 {
			return fmt.Errorf("WithDisconnection(%d, %g): %w", clients, hours, ErrOutOfRange)
		}
		s.cfg.DisconnectedClients = clients
		s.cfg.DisconnectHours = hours
		return nil
	}
}

// WithLoss sets the per-frame Bernoulli loss probability on each channel.
func WithLoss(rate float64) Option {
	return func(s *Scenario) error {
		if rate < 0 || rate > 1 {
			return fmt.Errorf("WithLoss(%g): %w", rate, ErrOutOfRange)
		}
		s.cfg.LossRate = rate
		return nil
	}
}

// WithCorruption sets the per-frame corruption probability (CRC-detected).
func WithCorruption(rate float64) Option {
	return func(s *Scenario) error {
		if rate < 0 || rate > 1 {
			return fmt.Errorf("WithCorruption(%g): %w", rate, ErrOutOfRange)
		}
		s.cfg.CorruptRate = rate
		return nil
	}
}

// WithBursts puts the channels in a Gilbert–Elliott burst-outage regime:
// fraction is the stationary Bad-state share, meanBadSeconds the mean
// outage length (0 keeps the default).
func WithBursts(fraction, meanBadSeconds float64) Option {
	return func(s *Scenario) error {
		if fraction < 0 || fraction > 1 || meanBadSeconds < 0 {
			return fmt.Errorf("WithBursts(%g, %g): %w", fraction, meanBadSeconds, ErrOutOfRange)
		}
		s.cfg.BurstFraction = fraction
		s.cfg.MeanBadSeconds = meanBadSeconds
		return nil
	}
}

// WithRetry configures the client reliability layer: maximum
// retransmissions per request (negative disables) and the base backoff in
// seconds (0 keeps the default).
func WithRetry(maxRetries int, backoffSeconds float64) Option {
	return func(s *Scenario) error {
		if backoffSeconds < 0 {
			return fmt.Errorf("WithRetry(%d, %g): %w", maxRetries, backoffSeconds, ErrOutOfRange)
		}
		s.cfg.RetryMax = maxRetries
		s.cfg.RetryBackoff = backoffSeconds
		return nil
	}
}

// --- Instrumentation --------------------------------------------------

// WithTracer streams one record per completed query into t.
func WithTracer(t trace.Tracer) Option {
	return func(s *Scenario) error {
		s.cfg.Tracer = t
		return nil
	}
}

// WithObs instruments the run against the given registry (see Config.Obs).
func WithObs(reg *obs.Registry) Option {
	return func(s *Scenario) error {
		s.cfg.Obs = reg
		return nil
	}
}

// WithConfig seeds the scenario from an existing Config — the bridge for
// callers holding a manifest-restored or flag-built Config who still want
// Scenario validation: experiment.New(experiment.WithConfig(cfg)).
// Later options apply on top.
func WithConfig(cfg Config) Option {
	return func(s *Scenario) error {
		s.cfg = cfg
		s.setClients = cfg.NumClients != 0
		s.setCells = cfg.Cells != 0
		s.setObjects = cfg.NumObjects != 0
		s.setServerBuffer = cfg.ServerBufferObjects != 0
		s.setBufferRatio = cfg.ServerBufferRatio != 0
		return nil
	}
}
