package experiment

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Tests for the unreliable-channel model (Experiment #7): seeded
// determinism of faulted runs, invariance of the perfect-channel path, and
// the qualitative loss-sensitivity shape the experiment demonstrates.

// faultCfg is shapeCfg with a lossy channel.
func faultCfg(loss float64) Config {
	cfg := shapeCfg()
	cfg.Granularity = core.HybridCaching
	cfg.UpdateProb = 0.1
	cfg.LossRate = loss
	return cfg
}

// Two runs with identical seeds and identical loss/burst settings must be
// identical in every measurement — the per-run half of the byte-identical
// tables guarantee.
func TestFaultedRunDeterminism(t *testing.T) {
	cfg := faultCfg(0.15)
	cfg.BurstFraction = 0.2
	a, b := Run(cfg), Run(cfg)
	// Compare the rendered form: the guarantee is about reproducible
	// tables, and DeepEqual would trip over NaN placeholders (e.g. empty
	// warmup hours) that render identically.
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("identical faulted configs diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.FramesLost == 0 {
		t.Fatal("loss 0.15 + bursts produced no lost frames")
	}
}

// And the table-level half: a faulted sweep renders byte-identically on
// repeated runs, at any worker count.
func TestExp7TablesDeterministic(t *testing.T) {
	base := shapeCfg()
	base.Days = 0.25
	prev := SetDefaultWorkers(1)
	defer SetDefaultWorkers(prev)
	serial := Exp7Quick(base).String()
	SetDefaultWorkers(4)
	parallel := Exp7Quick(base).String()
	if serial != parallel {
		t.Fatalf("Exp7 tables differ between serial and parallel runs:\n%s\nvs\n%s",
			serial, parallel)
	}
}

// With the fault model disabled the reliability layer must be completely
// inert: no retries, no timeouts, no lost frames, no degraded reads — and,
// since every round trip runs the retry loop, its settings change nothing.
func TestPerfectChannelHasNoFaultActivity(t *testing.T) {
	res := Run(faultCfg(0))
	if res.FramesLost != 0 || res.FramesCorrupted != 0 || res.Retries != 0 ||
		res.Account.Events[metrics.Timeout] != 0 || res.DegradedReads != 0 {
		t.Fatalf("perfect channel recorded fault activity: %+v", res)
	}
	// AccessErrorRate still reflects coherence errors (+ any unavailable
	// reads), so it must agree with the components it is defined over.
	if res.Account.AccessErrorRate() < res.ErrorRate-1e-9 {
		t.Fatalf("AccessErrorRate %v < ErrorRate %v", res.Account.AccessErrorRate(), res.ErrorRate)
	}
	want := renderSansConfig(res)
	for _, retries := range []int{-1, 0, 5} {
		for _, backoff := range []float64{0, 7} {
			cfg := faultCfg(0)
			cfg.RetryMax, cfg.RetryBackoff = retries, backoff
			if got := renderSansConfig(Run(cfg)); got != want {
				t.Errorf("RetryMax %d, RetryBackoff %g moved a lossless run:\n%s\nvs\n%s",
					retries, backoff, got, want)
			}
		}
	}
}

// Frame loss must cost something: retries fire, and response time rises
// with the loss rate.
func TestLossSlowsResponses(t *testing.T) {
	clean := Run(faultCfg(0))
	lossy := Run(faultCfg(0.2))
	if lossy.Retries == 0 || lossy.FramesLost == 0 {
		t.Fatalf("loss 0.2 produced no retries/lost frames: %+v", lossy)
	}
	if lossy.MeanResponse <= clean.MeanResponse {
		t.Fatalf("response time did not rise under loss: %.3f vs %.3f",
			lossy.MeanResponse, clean.MeanResponse)
	}
}

// The Experiment #7 headline: NC's access-error rate explodes with loss
// (nothing to fall back on → unavailable reads), while a cached
// granularity degrades much more slowly in relative terms.
func TestShapeAccessErrorsUnderLoss(t *testing.T) {
	run := func(g core.Granularity, loss float64) Result {
		cfg := faultCfg(loss)
		cfg.Granularity = g
		return Run(cfg)
	}
	ncClean := run(core.NoCache, 0)
	ncLossy := run(core.NoCache, 0.3)
	hcClean := run(core.HybridCaching, 0)
	hcLossy := run(core.HybridCaching, 0.3)

	if ncLossy.Account.AccessErrorRate() <= ncClean.Account.AccessErrorRate() {
		t.Fatalf("NC access errors did not rise with loss: %.4f vs %.4f",
			ncLossy.Account.AccessErrorRate(), ncClean.Account.AccessErrorRate())
	}
	ncJump := ncLossy.Account.AccessErrorRate() - ncClean.Account.AccessErrorRate()
	hcJump := hcLossy.Account.AccessErrorRate() - hcClean.Account.AccessErrorRate()
	if hcJump >= ncJump {
		t.Fatalf("HC degraded faster than NC under loss: ΔHC=%.4f ΔNC=%.4f",
			hcJump, ncJump)
	}
}

// Retry exhaustion must fall back to stale cached copies where they exist:
// with a cache and heavy loss, degraded reads appear.
func TestDegradedServingUnderHeavyLoss(t *testing.T) {
	cfg := faultCfg(0.05)
	// Long bursts overwhelm the backoff schedule and exhaust retries.
	cfg.BurstFraction = 0.3
	cfg.MeanBadSeconds = 60
	res := Run(cfg)
	if res.Account.Events[metrics.Timeout] == 0 {
		t.Fatalf("burst outages produced no timeouts: %+v", res)
	}
	if res.DegradedReads == 0 {
		t.Fatalf("retry exhaustion with a warm cache served no degraded reads: %+v", res)
	}
}
