package experiment

import (
	"errors"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Named validation errors. Every Config.Validate and option failure wraps
// one of these, so callers branch with errors.Is instead of string
// matching.
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
// with New and a list of options, then call Run. New rejects bad input up
// front with an error that names the offending field or option; a bare
// Run(Config) applies the same Config.Validate but can only panic with it.
//
//	sc, err := experiment.New(
//	    experiment.WithFleet(1000, 8),
//	    experiment.WithGranularity(core.HybridCaching),
//	    experiment.WithCoherence(coherence.LeaseStrategy),
//	)
//	if err != nil { ... }
//	res := sc.Run()
//
// Scenario adds no behavior of its own: the options assemble a Config,
// Config.Validate judges it, and Run(Config) executes it.
type Scenario struct {
	cfg Config

	setClients      bool
	setCells        bool
	setObjects      bool
	setServerBuffer bool
	setBufferRatio  bool
}

// Option mutates a Scenario under construction. Most options only set
// their field and leave judging the value to Config.Validate, which New
// runs once every option has applied; an option returns an error itself
// only for what a Config cannot represent — an explicit zero where zero
// means "default", a name that does not parse, or a knob set twice to
// different values.
type Option func(*Scenario) error

// New builds a Scenario from the paper's Table 1 defaults plus the given
// options and validates the result (Config.Validate), so every error comes
// back here, wrapping ErrOutOfRange, ErrConflict, or ErrBadSpec.
func New(opts ...Option) (*Scenario, error) {
	s := &Scenario{}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Config returns the fully defaulted Config the scenario will run — the
// exact value Run would echo back in Result.Config.
func (s *Scenario) Config() Config { return Defaults(s.cfg) }

// Run executes the scenario (see Run): one cell or many, the same path.
func (s *Scenario) Run() Result { return Run(s.cfg) }

// Replicate runs the scenario n times with consecutive seeds on the worker
// pool and returns the replication summary (see Replicate).
func (s *Scenario) Replicate(n int) *Replicated { return Replicate(s.cfg, n) }

// set wraps a plain field assignment as an Option.
func set(assign func(*Config)) Option {
	return func(s *Scenario) error {
		assign(&s.cfg)
		return nil
	}
}

// explicitZero is the error for a zero passed where Config reads zero as
// "default": the caller asked for a value the run would silently replace.
func explicitZero(option string) error {
	return fmt.Errorf("%s(0): %w", option, ErrOutOfRange)
}

// --- Identity, population, horizon -----------------------------------

// WithLabel names the run in tables and panic annotations.
func WithLabel(label string) Option { return set(func(c *Config) { c.Label = label }) }

// WithSeed sets the root seed every substream derives from.
func WithSeed(seed uint64) Option { return set(func(c *Config) { c.Seed = seed }) }

// WithHorizonDays sets the simulated duration in days (default 4, §5).
func WithHorizonDays(days float64) Option {
	return func(s *Scenario) error {
		if days == 0 {
			return explicitZero("WithHorizonDays")
		}
		s.cfg.Days = days
		return nil
	}
}

// WithWarmupDays discards measurements before the given day mark.
func WithWarmupDays(days float64) Option { return set(func(c *Config) { c.WarmupDays = days }) }

// setOnce assigns n to the knob *v unless n is an explicit zero or the knob
// was already set (*isSet) to a different value.
func setOnce(option string, v *int, isSet *bool, n int) error {
	if n == 0 {
		return explicitZero(option)
	}
	if *isSet && *v != n {
		return fmt.Errorf("%s(%d) after %d was set: %w", option, n, *v, ErrConflict)
	}
	*v, *isSet = n, true
	return nil
}

// WithObjects sets the database size in objects (default 2000). It
// conflicts with a WithDatabaseSize that named a different size.
func WithObjects(n int) Option {
	return func(s *Scenario) error { return setOnce("WithObjects", &s.cfg.NumObjects, &s.setObjects, n) }
}

// WithDatabaseSize sets the database size in objects — the same knob as
// WithObjects under the name Experiment #11's size sweep uses. The two
// conflict when they name different sizes.
func WithDatabaseSize(n int) Option {
	return func(s *Scenario) error { return setOnce("WithDatabaseSize", &s.cfg.NumObjects, &s.setObjects, n) }
}

// WithClients sets the fleet size (default 10, the paper's population).
// It conflicts with a WithFleet that named a different size.
func WithClients(n int) Option {
	return func(s *Scenario) error { return setOnce("WithClients", &s.cfg.NumClients, &s.setClients, n) }
}

// WithCells shards the run across that many cells (1 = the paper's
// single-server system). It conflicts with a WithFleet that named a
// different cell count.
func WithCells(n int) Option {
	return func(s *Scenario) error { return setOnce("WithCells", &s.cfg.Cells, &s.setCells, n) }
}

// WithFleet sets fleet size and cell count together — the fleet-scale
// shorthand: WithFleet(1000, 8) is WithClients(1000) plus WithCells(8).
func WithFleet(clients, cells int) Option {
	return func(s *Scenario) error {
		if err := WithClients(clients)(s); err != nil {
			return err
		}
		return WithCells(cells)(s)
	}
}

// WithRelayCache gives every contact server a lease-respecting relay cache
// of that many remote objects (multi-cell runs only; 0 disables).
func WithRelayCache(objects int) Option {
	return set(func(c *Config) { c.RelayObjects = objects })
}

// WithBackbone overrides the inter-cell backbone link: bandwidth in
// bits/second and per-message latency in seconds (0, 0 keeps the
// federation defaults of 10 Mbps and 5 ms).
func WithBackbone(bandwidthBps, latencySeconds float64) Option {
	return set(func(c *Config) {
		c.BackboneBandwidthBps = bandwidthBps
		c.BackboneLatency = latencySeconds
	})
}

// --- Caching ----------------------------------------------------------

// WithGranularity selects the caching granularity (NC/AC/OC/HC).
func WithGranularity(g core.Granularity) Option {
	return set(func(c *Config) { c.Granularity = g })
}

// WithPolicy selects the replacement policy by spec (e.g. "ewma-0.5",
// "lru-3", "win-10").
func WithPolicy(spec string) Option { return set(func(c *Config) { c.Policy = spec }) }

// WithClientCache sets the client cache sizes: storage in objects' worth
// of bytes and the in-memory buffer in objects (0 keeps either default).
// (Formerly WithStorage, which now names the server's persistent tier.)
func WithClientCache(storageObjects, memBufferObjects int) Option {
	return set(func(c *Config) {
		c.StorageObjects = storageObjects
		c.MemBufferObjects = memBufferObjects
	})
}

// WithServerBuffer sets the server memory buffer in objects (split across
// partitions on a fleet; default 25% of the database). It conflicts with
// a WithBufferRatio that already sized the buffer.
func WithServerBuffer(objects int) Option {
	return func(s *Scenario) error {
		if s.setBufferRatio {
			return fmt.Errorf("WithServerBuffer(%d) after WithBufferRatio(%g): %w",
				objects, s.cfg.ServerBufferRatio, ErrConflict)
		}
		s.cfg.ServerBufferObjects = objects
		s.setServerBuffer = objects != 0
		return nil
	}
}

// WithBufferRatio sizes the server buffer as a fraction of the database
// (0 < r <= 1), so a size sweep keeps buffer pressure constant. It
// conflicts with a WithServerBuffer that already fixed an object count.
func WithBufferRatio(r float64) Option {
	return func(s *Scenario) error {
		if r == 0 {
			return explicitZero("WithBufferRatio")
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
// buffer pool, named by DSN ("file:<dir>[?sync=group|always|none]"). Each
// run gets a cold per-run subdirectory under the path. Simulated timing is
// unchanged — the tier is a measured side effect reported in
// Result.StorageTier.
func WithStorage(dsn string) Option { return set(func(c *Config) { c.StorageDSN = dsn }) }

// WithPrefetchKappa positions the hybrid-caching prefetch threshold at
// mu + kappa*sigma of the attribute-heat distribution.
func WithPrefetchKappa(kappa float64) Option {
	return set(func(c *Config) { c.PrefetchKappa = kappa })
}

// WithShedThreshold enables the §5.3 timeout heuristic: replies queued at
// the downlink longer than this many seconds shed their prefetched items.
func WithShedThreshold(seconds float64) Option {
	return set(func(c *Config) { c.ShedThreshold = seconds })
}

// --- Workload ---------------------------------------------------------

// WithQueryKind selects associative (AQ) or navigational (NQ) queries.
func WithQueryKind(k workload.Kind) Option { return set(func(c *Config) { c.QueryKind = k }) }

// WithHeat selects the heat model family (SH, CSH, cyclic).
func WithHeat(h HeatKind) Option { return set(func(c *Config) { c.Heat = h }) }

// WithCSHChangeEvery sets the CSH hot-set change rate in queries.
func WithCSHChangeEvery(queries int) Option {
	return func(s *Scenario) error {
		if queries == 0 {
			return explicitZero("WithCSHChangeEvery")
		}
		s.cfg.CSHChangeEvery = queries
		return nil
	}
}

// WithArrival selects the arrival process (Poisson or the Bursty daily
// profile).
func WithArrival(a ArrivalKind) Option { return set(func(c *Config) { c.Arrival = a }) }

// WithPoissonRate sets the per-client query rate in queries/second.
func WithPoissonRate(rate float64) Option {
	return func(s *Scenario) error {
		if rate == 0 {
			return explicitZero("WithPoissonRate")
		}
		s.cfg.PoissonRate = rate
		return nil
	}
}

// WithUpdateProb sets the server-side update probability U in [0, 1].
func WithUpdateProb(u float64) Option { return set(func(c *Config) { c.UpdateProb = u }) }

// WithSharedPool gives every client a common interest pool: objects is the
// pool size, prob the probability a pick comes from it.
func WithSharedPool(objects int, prob float64) Option {
	return set(func(c *Config) {
		c.SharedHotObjects = objects
		c.SharedHotProb = prob
	})
}

// WithBroadcastAttrs airs the shared pool's top-N attribute items on a
// dedicated broadcast channel (requires WithSharedPool).
func WithBroadcastAttrs(n int) Option { return set(func(c *Config) { c.BroadcastAttrs = n }) }

// --- Coherence --------------------------------------------------------

// WithCoherence selects the coherence strategy, either by enum value or
// by name — WithCoherence(coherence.IRBroadcastStrategy) and
// WithCoherence("irb") are the same option (names as in coherence.Parse).
func WithCoherence[T coherence.Strategy | string](strategy T) Option {
	return func(s *Scenario) error {
		switch v := any(strategy).(type) {
		case coherence.Strategy:
			s.cfg.Coherence = v
		case string:
			strat, ok := coherence.Parse(v)
			if !ok {
				return fmt.Errorf("WithCoherence(%q): %w", v, ErrOutOfRange)
			}
			s.cfg.Coherence = strat
		}
		return nil
	}
}

// WithBeta sets the staleness tolerance beta of the paper's lease scheme
// (any sign: Figure 7 sweeps -1, 0, 1).
func WithBeta(beta float64) Option { return set(func(c *Config) { c.Beta = beta }) }

// WithFixedLease sets the fixed-lease duration in seconds (used with
// coherence.FixedLeaseStrategy).
func WithFixedLease(seconds float64) Option {
	return set(func(c *Config) { c.FixedLease = seconds })
}

// WithReportInterval sets the invalidation-report broadcast period,
// shared by the legacy reliable-IR scheme and the broadcast-IR scheme.
func WithReportInterval(seconds float64) Option {
	return func(s *Scenario) error {
		if seconds == 0 {
			return explicitZero("WithReportInterval")
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
		if seconds == 0 {
			return explicitZero("WithIRWindow")
		}
		s.cfg.IRWindow = seconds
		return nil
	}
}

// WithCooperative enables cooperative client caching: on a connected
// local miss the client scans up to maxPeers cell peers for a valid
// cached copy before paying the server round trip (0 disables).
func WithCooperative(maxPeers int) Option {
	return set(func(c *Config) { c.CoopPeers = maxPeers })
}

// --- Disruption: disconnection and unreliable channels ----------------

// WithDisconnection disconnects `clients` of the fleet for `hours` each
// simulated day (Experiment #6's D × V grid).
func WithDisconnection(clients int, hours float64) Option {
	return set(func(c *Config) {
		c.DisconnectedClients = clients
		c.DisconnectHours = hours
	})
}

// WithLoss sets the per-frame Bernoulli loss probability on each channel.
func WithLoss(rate float64) Option { return set(func(c *Config) { c.LossRate = rate }) }

// WithCorruption sets the per-frame corruption probability (CRC-detected).
func WithCorruption(rate float64) Option { return set(func(c *Config) { c.CorruptRate = rate }) }

// WithBursts puts the channels in a Gilbert–Elliott burst-outage regime:
// fraction is the stationary Bad-state share, meanBadSeconds the mean
// outage length (0 keeps the default).
func WithBursts(fraction, meanBadSeconds float64) Option {
	return set(func(c *Config) {
		c.BurstFraction = fraction
		c.MeanBadSeconds = meanBadSeconds
	})
}

// WithRetry configures the client reliability layer: maximum
// retransmissions per request (negative disables) and the base backoff in
// seconds (0 keeps the default).
func WithRetry(maxRetries int, backoffSeconds float64) Option {
	return set(func(c *Config) {
		c.RetryMax = maxRetries
		c.RetryBackoff = backoffSeconds
	})
}

// --- Instrumentation --------------------------------------------------

// WithTracer streams one record per completed query into t.
func WithTracer(t trace.Tracer) Option { return set(func(c *Config) { c.Tracer = t }) }

// WithObs instruments the run against the given registry (see Config.Obs).
func WithObs(reg *obs.Registry) Option { return set(func(c *Config) { c.Obs = reg }) }

// WithConfig seeds the scenario from an existing Config — the bridge for
// callers holding a manifest-restored or flag-built Config who want to
// layer options on top: experiment.New(experiment.WithConfig(cfg), ...).
// (To only check such a Config, call its Validate.)
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
