package network

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/rng"
)

// This file adds an unreliable-channel fault model on top of the idealized
// 19.2 Kbps links of §4. The paper only treats disconnection as a coarse
// per-day schedule (Experiment #6); real mobile links also drop and corrupt
// individual frames. The model is deterministic in (config, seed, virtual
// time) so faulted experiment tables are byte-for-byte reproducible, and it
// is entirely additive: with a disabled config no FaultModel is built, and
// the nil model delivers every frame without drawing from any stream.
//
// Three failure processes compose per transmitted frame (DESIGN.md §9):
//
//   - Bernoulli loss: each frame is independently lost with probability
//     LossProb while the channel is in its Good state.
//   - Burst outages: a two-state Gilbert–Elliott chain alternates between
//     Good and Bad states with exponentially distributed sojourn times;
//     frames sent in the Bad state are lost with probability BadLossProb
//     (default 1 — a hard outage).
//   - Corruption: a frame that survives loss is corrupted in flight with
//     probability CorruptProb. The 11-byte header's CRC detects the damage
//     at the receiver, so a corrupted frame costs its full transfer time
//     before being discarded — unlike a lost frame, which simply never
//     arrives.

// FaultOutcome is the fate of one transmitted frame.
type FaultOutcome int

const (
	// FrameDelivered means the frame arrived intact.
	FrameDelivered FaultOutcome = iota
	// FrameLost means the frame vanished in flight (receiver sees nothing
	// and can only detect the loss by timeout).
	FrameLost
	// FrameCorrupted means the frame arrived but failed its CRC check and
	// was discarded by the receiver.
	FrameCorrupted
)

// String renders the outcome name.
func (o FaultOutcome) String() string {
	switch o {
	case FrameDelivered:
		return "delivered"
	case FrameLost:
		return "lost"
	case FrameCorrupted:
		return "corrupted"
	default:
		return "outcome(?)"
	}
}

// DefaultMeanBadSeconds is the mean Bad-state (burst outage) duration when
// bursts are enabled without an explicit sojourn time.
const DefaultMeanBadSeconds = 10.0

// FaultConfig parameterizes one channel's fault processes. The zero value
// is a perfect channel (Enabled reports false and no model is built).
type FaultConfig struct {
	// LossProb is the independent per-frame loss probability in the Good
	// state (Bernoulli loss).
	LossProb float64
	// CorruptProb is the probability a delivered frame is corrupted in
	// flight and rejected by the receiver's CRC check.
	CorruptProb float64
	// BurstFraction is the stationary fraction of time the Gilbert–Elliott
	// chain spends in the Bad state (0 disables bursts, must be < 1).
	BurstFraction float64
	// MeanBadSeconds is the mean Bad-state sojourn (DefaultMeanBadSeconds
	// if zero). The Good-state mean follows from BurstFraction:
	// meanGood = meanBad·(1−f)/f.
	MeanBadSeconds float64
	// BadLossProb is the per-frame loss probability in the Bad state
	// (1 if zero — a total outage).
	BadLossProb float64
	// Seed drives the model's random draws; the two channel directions
	// derive independent streams from it.
	Seed uint64
}

// Enabled reports whether the config describes any fault process at all.
// A disabled config must not change simulation behaviour in any way.
func (c FaultConfig) Enabled() bool {
	return c.LossProb > 0 || c.CorruptProb > 0 || c.BurstFraction > 0
}

// validate panics on out-of-range parameters.
func (c FaultConfig) validate() {
	if c.LossProb < 0 || c.LossProb > 1 {
		panic(fmt.Sprintf("network: LossProb %v out of [0,1]", c.LossProb))
	}
	if c.CorruptProb < 0 || c.CorruptProb > 1 {
		panic(fmt.Sprintf("network: CorruptProb %v out of [0,1]", c.CorruptProb))
	}
	if c.BurstFraction < 0 || c.BurstFraction >= 1 {
		panic(fmt.Sprintf("network: BurstFraction %v out of [0,1)", c.BurstFraction))
	}
	if c.MeanBadSeconds < 0 {
		panic(fmt.Sprintf("network: MeanBadSeconds %v negative", c.MeanBadSeconds))
	}
	if c.BadLossProb < 0 || c.BadLossProb > 1 {
		panic(fmt.Sprintf("network: BadLossProb %v out of [0,1]", c.BadLossProb))
	}
}

// FaultStats snapshots a model's frame counters.
type FaultStats struct {
	Delivered uint64
	Lost      uint64
	Corrupted uint64
}

// FaultModel decides the fate of frames on one channel direction. It is
// single-threaded like the rest of the simulation: calls must be made in
// non-decreasing virtual time, which the event kernel guarantees.
type FaultModel struct {
	cfg      FaultConfig
	rnd      *rng.Stream
	meanGood float64
	meanBad  float64
	badLoss  float64

	bad      bool
	nextFlip float64 // virtual time of the next Gilbert–Elliott transition

	stats FaultStats
}

// NewFaultModel builds a model for one channel direction. streamID keys
// the direction's RNG substream so the uplink and downlink draw
// independently from the same root seed. Returns nil for a disabled
// config: the nil model is a perfect channel.
func NewFaultModel(cfg FaultConfig, streamID uint64) *FaultModel {
	cfg.validate()
	if !cfg.Enabled() {
		return nil
	}
	m := &FaultModel{
		cfg:      cfg,
		rnd:      rng.Derive(cfg.Seed, 0xfa017ed0+streamID),
		badLoss:  cfg.BadLossProb,
		nextFlip: math.Inf(1),
	}
	if m.badLoss == 0 {
		m.badLoss = 1
	}
	if cfg.BurstFraction > 0 {
		m.meanBad = cfg.MeanBadSeconds
		if m.meanBad == 0 {
			m.meanBad = DefaultMeanBadSeconds
		}
		m.meanGood = m.meanBad * (1 - cfg.BurstFraction) / cfg.BurstFraction
		// The chain starts in the Good state at t = 0.
		m.nextFlip = m.rnd.Exp(1 / m.meanGood)
	}
	return m
}

// advance runs the Gilbert–Elliott chain up to virtual time now.
func (m *FaultModel) advance(now float64) {
	for m.nextFlip <= now {
		m.bad = !m.bad
		mean := m.meanGood
		if m.bad {
			mean = m.meanBad
		}
		m.nextFlip += m.rnd.Exp(1 / mean)
	}
}

// Transmit judges one frame sent at virtual time now and updates the
// counters. The frame occupies its channel regardless of the outcome; the
// caller decides what a loss or corruption means end to end. A nil model
// (perfect channel) delivers every frame and counts nothing.
func (m *FaultModel) Transmit(now float64) FaultOutcome {
	if m == nil {
		return FrameDelivered
	}
	m.advance(now)
	loss := m.cfg.LossProb
	if m.bad {
		loss = m.badLoss
	}
	if m.rnd.Bool(loss) {
		m.stats.Lost++
		return FrameLost
	}
	if m.rnd.Bool(m.cfg.CorruptProb) {
		m.stats.Corrupted++
		return FrameCorrupted
	}
	m.stats.Delivered++
	return FrameDelivered
}

// Stats snapshots the frame counters. A nil model reports zeros.
func (m *FaultModel) Stats() FaultStats {
	if m == nil {
		return FaultStats{}
	}
	return m.stats
}

// Register wires the model's frame counters into an observability
// registry under the given series prefix. Only the cumulative counters
// are exposed: sampling the Gilbert–Elliott state itself would advance
// the chain's RNG at sampler times and perturb the run. No-op on a nil
// model (perfect channel) or a disabled registry.
func (m *FaultModel) Register(reg *obs.Registry, prefix string) {
	if m == nil || !reg.Enabled() {
		return
	}
	reg.Gauge(prefix+".frames_lost", func() float64 { return float64(m.stats.Lost) })
	reg.Gauge(prefix+".frames_corrupted", func() float64 { return float64(m.stats.Corrupted) })
	reg.Gauge(prefix+".frames_delivered", func() float64 { return float64(m.stats.Delivered) })
}
