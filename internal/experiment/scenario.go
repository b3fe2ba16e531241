package experiment

import (
	"errors"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
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
// Config.Validate judges it, and Run(Config) executes it. There is an
// option for each knob a binary or example sets; every other knob is a
// Config field, checked by the same Config.Validate.
type Scenario struct {
	cfg Config

	setClients bool
	setCells   bool
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

// WithObjects sets the database size in objects (default 2000).
func WithObjects(n int) Option {
	return func(s *Scenario) error {
		if n == 0 {
			return explicitZero("WithObjects")
		}
		s.cfg.NumObjects = n
		return nil
	}
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
func WithClientCache(storageObjects, memBufferObjects int) Option {
	return set(func(c *Config) {
		c.StorageObjects = storageObjects
		c.MemBufferObjects = memBufferObjects
	})
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

// WithUpdateProb sets the server-side update probability U in [0, 1].
func WithUpdateProb(u float64) Option { return set(func(c *Config) { c.UpdateProb = u }) }

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
			strat, err := coherence.Parse(v)
			if err != nil {
				return fmt.Errorf("WithCoherence(%q): %w", v, ErrOutOfRange)
			}
			s.cfg.Coherence = strat
		}
		return nil
	}
}

// WithFixedLease sets the fixed-lease duration in seconds; under any
// strategy but coherence.FixedLeaseStrategy it is an ErrConflict.
func WithFixedLease(seconds float64) Option {
	return set(func(c *Config) { c.FixedLease = seconds })
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
