package experiment

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/workload"
)

// The option layer below is kept for bench/; delete with ROADMAP item 17.
//
// Everything else builds a Config literal, checks it with Config.Validate
// and runs it with Run:
//
//	cfg := experiment.Config{
//	    NumClients: 1000, Cells: 8,
//	    Granularity: core.HybridCaching,
//	    Coherence:   coherence.LeaseStrategy,
//	}
//	if err := cfg.Validate(); err != nil { ... }
//	res := experiment.Run(cfg)
//
// bench/ compiles against Scenario, Option, New and the 13 options here,
// each a plain assignment of one or two Config fields; `make deadcode`
// fails on a use of them anywhere else.

// Scenario is a Config assembled by options and validated by New. It adds
// no behavior of its own: Run is Run on that Config.
type Scenario struct{ cfg Config }

// Option sets Config fields of a Scenario under construction. The only
// error an option returns itself is a coherence name that does not parse,
// which a Config cannot represent; New leaves every other judgement to
// Config.Validate.
type Option func(*Config) error

// New assembles a Config from the paper's Table 1 defaults plus the given
// options, then validates it (Config.Validate), so every error comes back
// here, wrapping ErrOutOfRange, ErrConflict, or ErrBadSpec.
func New(opts ...Option) (*Scenario, error) {
	s := &Scenario{}
	for _, opt := range opts {
		if err := opt(&s.cfg); err != nil {
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
	return func(c *Config) error {
		assign(c)
		return nil
	}
}

// WithSeed sets Config.Seed.
func WithSeed(seed uint64) Option { return set(func(c *Config) { c.Seed = seed }) }

// WithHorizonDays sets Config.Days.
func WithHorizonDays(days float64) Option { return set(func(c *Config) { c.Days = days }) }

// WithObjects sets Config.NumObjects.
func WithObjects(n int) Option { return set(func(c *Config) { c.NumObjects = n }) }

// WithClients sets Config.NumClients.
func WithClients(n int) Option { return set(func(c *Config) { c.NumClients = n }) }

// WithFleet sets Config.NumClients and Config.Cells.
func WithFleet(clients, cells int) Option {
	return set(func(c *Config) { c.NumClients, c.Cells = clients, cells })
}

// WithGranularity sets Config.Granularity.
func WithGranularity(g core.Granularity) Option {
	return set(func(c *Config) { c.Granularity = g })
}

// WithPolicy sets Config.Policy, a replacement-policy spec.
func WithPolicy(spec string) Option { return set(func(c *Config) { c.Policy = spec }) }

// WithClientCache sets Config.StorageObjects and Config.MemBufferObjects.
func WithClientCache(storageObjects, memBufferObjects int) Option {
	return set(func(c *Config) { c.StorageObjects, c.MemBufferObjects = storageObjects, memBufferObjects })
}

// WithQueryKind sets Config.QueryKind.
func WithQueryKind(k workload.Kind) Option { return set(func(c *Config) { c.QueryKind = k }) }

// WithUpdateProb sets Config.UpdateProb.
func WithUpdateProb(u float64) Option { return set(func(c *Config) { c.UpdateProb = u }) }

// WithCoherence sets Config.Coherence by enum value or by name (names as
// in coherence.Parse); an unknown name wraps ErrOutOfRange.
func WithCoherence[T coherence.Strategy | string](strategy T) Option {
	return func(c *Config) error {
		switch v := any(strategy).(type) {
		case coherence.Strategy:
			c.Coherence = v
		case string:
			strat, err := coherence.Parse(v)
			if err != nil {
				return fmt.Errorf("WithCoherence(%q): %w", v, ErrOutOfRange)
			}
			c.Coherence = strat
		}
		return nil
	}
}

// WithCooperative sets Config.CoopPeers.
func WithCooperative(maxPeers int) Option { return set(func(c *Config) { c.CoopPeers = maxPeers }) }

// WithLoss sets Config.LossRate.
func WithLoss(rate float64) Option { return set(func(c *Config) { c.LossRate = rate }) }
