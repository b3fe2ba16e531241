package network

import (
	"math"
	"testing"
)

func TestFaultConfigEnabled(t *testing.T) {
	cases := []struct {
		cfg  FaultConfig
		want bool
	}{
		{FaultConfig{}, false},
		{FaultConfig{Seed: 42}, false},
		{FaultConfig{LossProb: 0.1}, true},
		{FaultConfig{CorruptProb: 0.01}, true},
		{FaultConfig{BurstFraction: 0.2}, true},
	}
	for i, c := range cases {
		if got := c.cfg.Enabled(); got != c.want {
			t.Fatalf("case %d: Enabled() = %v, want %v", i, got, c.want)
		}
	}
}

func TestDisabledConfigBuildsNoModel(t *testing.T) {
	if m := NewFaultModel(FaultConfig{Seed: 1}, 1); m != nil {
		t.Fatal("disabled config must build no model")
	}
	// A nil model is a perfect channel: it delivers every frame and
	// reports zero stats rather than panicking.
	var m *FaultModel
	if o := m.Transmit(1); o != FrameDelivered {
		t.Fatalf("nil model Transmit = %v, want delivered", o)
	}
	if s := m.Stats(); s != (FaultStats{}) {
		t.Fatalf("nil model stats = %+v", s)
	}
}

func TestFaultConfigValidation(t *testing.T) {
	bad := []FaultConfig{
		{LossProb: -0.1},
		{LossProb: 1.5},
		{CorruptProb: 2},
		{BurstFraction: 1}, // must be < 1: a permanently-bad channel hangs every retry loop
		{BurstFraction: -0.5},
		{BurstFraction: 0.2, MeanBadSeconds: -1},
		{LossProb: 0.1, BadLossProb: 1.5},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d (%+v) did not panic", i, cfg)
				}
			}()
			NewFaultModel(cfg, 1)
		}()
	}
}

// Same config and seed must produce the identical outcome sequence — the
// property the Experiment #7 byte-identical-tables guarantee rests on.
func TestFaultModelDeterminism(t *testing.T) {
	cfg := FaultConfig{LossProb: 0.2, CorruptProb: 0.05, BurstFraction: 0.3, Seed: 99}
	a := NewFaultModel(cfg, 1)
	b := NewFaultModel(cfg, 1)
	for i := 0; i < 5000; i++ {
		now := float64(i) * 0.37
		if oa, ob := a.Transmit(now), b.Transmit(now); oa != ob {
			t.Fatalf("frame %d: %v vs %v", i, oa, ob)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// Distinct stream IDs (the two channel directions) must draw independently.
func TestFaultModelStreamsIndependent(t *testing.T) {
	cfg := FaultConfig{LossProb: 0.5, Seed: 5}
	up := NewFaultModel(cfg, 1)
	down := NewFaultModel(cfg, 2)
	same := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if up.Transmit(float64(i)) == down.Transmit(float64(i)) {
			same++
		}
	}
	if same == n {
		t.Fatal("uplink and downlink outcome sequences are identical")
	}
}

func TestBernoulliLossRate(t *testing.T) {
	m := NewFaultModel(FaultConfig{LossProb: 0.1, Seed: 3}, 1)
	const n = 20000
	for i := 0; i < n; i++ {
		m.Transmit(float64(i))
	}
	got := float64(m.Stats().Lost) / n
	if math.Abs(got-0.1) > 0.01 {
		t.Fatalf("empirical loss rate %.4f, want ~0.10", got)
	}
	if m.Stats().Corrupted != 0 {
		t.Fatalf("corruption disabled but %d frames corrupted", m.Stats().Corrupted)
	}
}

func TestCorruptionOnlyHitsDeliveredFrames(t *testing.T) {
	m := NewFaultModel(FaultConfig{CorruptProb: 0.2, Seed: 11}, 1)
	const n = 20000
	for i := 0; i < n; i++ {
		m.Transmit(float64(i))
	}
	s := m.Stats()
	if s.Lost != 0 {
		t.Fatalf("loss disabled but %d frames lost", s.Lost)
	}
	got := float64(s.Corrupted) / n
	if math.Abs(got-0.2) > 0.012 {
		t.Fatalf("empirical corruption rate %.4f, want ~0.20", got)
	}
}

// The Gilbert–Elliott chain should spend roughly BurstFraction of its time
// in the Bad state, and a Bad-state frame is lost with BadLossProb = 1 by
// default.
func TestGilbertElliottStationaryFraction(t *testing.T) {
	m := NewFaultModel(FaultConfig{BurstFraction: 0.25, MeanBadSeconds: 4, Seed: 17}, 1)
	const (
		dt    = 0.1
		steps = 400000
	)
	bad := 0
	for i := 0; i < steps; i++ {
		if inBadState(m, float64(i)*dt) {
			bad++
		}
	}
	got := float64(bad) / steps
	if math.Abs(got-0.25) > 0.03 {
		t.Fatalf("Bad-state fraction %.4f, want ~0.25", got)
	}
}

func TestBadStateLosesEverythingByDefault(t *testing.T) {
	// BurstFraction close to 1 keeps the chain almost always Bad.
	m := NewFaultModel(FaultConfig{BurstFraction: 0.99, MeanBadSeconds: 1000, Seed: 23}, 1)
	// Walk into the Bad state first.
	start := 0.0
	for !inBadState(m, start) {
		start += 1.0
		if start > 1e6 {
			t.Fatal("chain never entered the Bad state")
		}
	}
	for i := 0; i < 100; i++ {
		// Stay within the long Bad sojourn.
		if out := m.Transmit(start + float64(i)*0.001); out != FrameLost {
			t.Fatalf("Bad-state frame %d: %v, want lost", i, out)
		}
	}
}

// Outage bursts must actually cluster: with the same stationary loss mass,
// the burst model's losses should have longer runs than Bernoulli's.
func TestBurstsCluster(t *testing.T) {
	runs := func(m *FaultModel) (maxRun int) {
		run := 0
		for i := 0; i < 50000; i++ {
			if m.Transmit(float64(i)*0.5) == FrameLost {
				run++
				if run > maxRun {
					maxRun = run
				}
			} else {
				run = 0
			}
		}
		return maxRun
	}
	bernoulli := runs(NewFaultModel(FaultConfig{LossProb: 0.2, Seed: 31}, 1))
	burst := runs(NewFaultModel(FaultConfig{BurstFraction: 0.2, MeanBadSeconds: 20, Seed: 31}, 1))
	if burst <= bernoulli {
		t.Fatalf("max loss run: burst %d <= bernoulli %d", burst, bernoulli)
	}
}

func BenchmarkFaultTransmit(b *testing.B) {
	m := NewFaultModel(FaultConfig{LossProb: 0.05, CorruptProb: 0.01,
		BurstFraction: 0.1, Seed: 1}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Transmit(float64(i) * 0.05)
	}
}

// inBadState advances m's chain to now and reports whether it is in the Bad
// (outage) state.
func inBadState(m *FaultModel, now float64) bool {
	m.advance(now)
	return m.bad
}
