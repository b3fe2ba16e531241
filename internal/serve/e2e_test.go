package serve

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/oodb"
)

// hitRatioTolerance bounds the sim-vs-live hit-ratio gap the end-to-end
// test accepts. The replay reuses the simulator's exact workload draws, so
// the residual gap comes only from the update-coin stream (private per
// client instead of the simulated server's shared stream), wall-clock
// jitter in lease expiry, and the simulator starting an adaptive lease one
// downlink transfer after the server priced it — all small against the
// ~0.5-0.8 hit ratios the configs below produce. TestTwinExactSequence
// checks everything else exactly.
const hitRatioTolerance = 0.08

// e2eConfig is a short AC scenario: ~52 queries per client over 0.06
// virtual days, 4 clients, 10% update probability.
func e2eConfig() experiment.Config {
	return experiment.Config{
		Seed:        7,
		NumClients:  4,
		NumObjects:  400,
		Days:        0.06,
		WarmupDays:  0.01,
		Granularity: core.AttributeCaching,
		UpdateProb:  0.1,
	}
}

// TestLiveReplayMatchesSimulator is the tentpole's acceptance test: boot
// the HTTP service on a loopback port, replay the same scenario the
// simulator runs, and require the live hit ratio to land within
// hitRatioTolerance of the simulated one. The replay's live read gauges
// must end on LiveResult's figures: they count on the same warm-up
// window, not the warm-up's reads too.
func TestLiveReplayMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock replay")
	}
	cfg := e2eConfig()
	_, addr := serveMemory(t, cfg)

	reg := obs.New(60)
	live, err := Replay(context.Background(), ReplayConfig{
		BaseURL: "http://" + addr,
		Config:  cfg,
		Speedup: 1500, // 0.06 days ~ 3.5s of wall time
		Reg:     reg,
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	// One more sample, taken after every client has finished, reads the
	// gauges' final values.
	reg.Attach(finalTick{}, 0)
	la := &live.Account
	for name, want := range map[string]float64{
		"clients.accesses":   float64(la.Total()),
		"clients.hit_ratio":  la.HitRatio(),
		"clients.error_rate": la.ErrorRate(),
	} {
		if _, got := reg.Series(name).Last(); got != want {
			t.Errorf("%s gauge ends at %v; LiveResult has %v", name, got, want)
		}
	}
	sim := experiment.Run(cfg)
	sa := &sim.Account

	t.Logf("sim: hit=%.4f err=%.4f queries=%d", sa.HitRatio(), sa.ErrorRate(), sa.Queries)
	t.Logf("live: hit=%.4f stale=%.4f err=%.4f queries=%d lag=%.1fvs wall=%.2fs",
		la.HitRatio(), live.StaleRate, la.ErrorRate(), la.Queries, live.MaxLagVirtual, live.WallSeconds)

	if la.Queries == 0 || la.Total() == 0 {
		t.Fatalf("replay issued no measured work: %+v", live)
	}
	if diff := math.Abs(la.HitRatio() - sa.HitRatio()); diff > hitRatioTolerance {
		t.Fatalf("live hit ratio %.4f vs simulated %.4f: |diff| %.4f exceeds tolerance %.2f",
			la.HitRatio(), sa.HitRatio(), diff, hitRatioTolerance)
	}
	// Coarser sanity on the error side: both should be small and of the
	// same magnitude; an always-stale or never-expiring live store fails
	// the hit-ratio gate long before this.
	if la.ErrorRate() > sa.ErrorRate()+hitRatioTolerance {
		t.Fatalf("live error rate %.4f vs simulated %.4f", la.ErrorRate(), sa.ErrorRate())
	}
}

// serveMemory boots a memory store for cfg on a loopback port for the
// rest of the test and returns it with its address.
func serveMemory(t *testing.T, cfg experiment.Config) (Store, string) {
	t.Helper()
	sc, err := storeConfig(cfg)
	if err != nil {
		t.Fatalf("storeConfig: %v", err)
	}
	st, err := Open("memory", sc)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	svc := NewService("127.0.0.1:0", NewHandler(st, HTTPConfig{}))
	addr, err := svc.Listen()
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go svc.Serve()
	t.Cleanup(func() { svc.Shutdown(0) })
	return st, addr
}

// TestReplayRefusesUsedServer: a replay measures a store from empty, so
// one that already holds state — here a single write — is refused before
// the first request, with the counts named. Replaying against a reused
// server once read error rates of 4 %, 17 % and 23 % with no warning.
func TestReplayRefusesUsedServer(t *testing.T) {
	cfg := e2eConfig()
	st, addr := serveMemory(t, cfg)
	if _, err := st.Write(0, []oodb.AttrID{0}); err != nil {
		t.Fatal(err)
	}
	_, err := Replay(context.Background(), ReplayConfig{BaseURL: "http://" + addr, Config: cfg, Speedup: 1500})
	if err == nil || !strings.Contains(err.Error(), "writes 1") {
		t.Fatalf("replay against a server holding a write: err %v, want one naming writes 1", err)
	}
}

func TestValidateLiveRejections(t *testing.T) {
	base := e2eConfig()
	cases := []struct {
		name string
		mod  func(*experiment.Config)
	}{
		{"nc granularity", func(c *experiment.Config) { c.Granularity = core.NoCache }},
		{"invalidation coherence", func(c *experiment.Config) { c.Coherence = coherence.IRBroadcastStrategy }},
		{"multi-cell", func(c *experiment.Config) { c.Cells = 4 }},
		{"disconnection", func(c *experiment.Config) { c.DisconnectedClients = 1 }},
		{"lossy channel", func(c *experiment.Config) { c.LossRate = 0.1 }},
		{"cooperative", func(c *experiment.Config) { c.CoopPeers = 2 }},
		{"objects past the index", func(c *experiment.Config) { c.NumObjects = oodb.MaxIndexedObjects + 1 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mod(&cfg)
		if err := ValidateLive(cfg); err == nil {
			t.Errorf("%s: accepted; want ErrUnsupported", tc.name)
		}
	}
	if err := ValidateLive(base); err != nil {
		t.Errorf("base config rejected: %v", err)
	}
}

func TestReplayRejectsBadTarget(t *testing.T) {
	if _, err := Replay(context.Background(), ReplayConfig{Config: e2eConfig()}); err == nil {
		t.Fatal("replay without a base URL accepted")
	}
	cfg := e2eConfig()
	cfg.Cells = 2
	if _, err := Replay(context.Background(), ReplayConfig{BaseURL: "http://x", Config: cfg}); err == nil {
		t.Fatal("unsupported config accepted")
	}
}

// finalTick is an obs.Ticker that runs one sampler tick at once.
type finalTick struct{}

func (finalTick) Now() float64               { return 0 }
func (finalTick) After(_ float64, fn func()) { fn() }
