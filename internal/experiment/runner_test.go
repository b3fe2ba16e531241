package experiment

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/workload"
)

// tinyCfg is the smallest config that still exercises the full stack; the
// runner tests execute dozens of them.
func tinyCfg() Config {
	return Config{
		Seed:        1,
		NumObjects:  200,
		NumClients:  2,
		Days:        0.05,
		Granularity: core.HybridCaching,
		QueryKind:   workload.Associative,
		Heat:        SkewedHeat,
		UpdateProb:  0.1,
	}
}

func TestRunBatchMatchesSerial(t *testing.T) {
	var cfgs []Config
	for i := 0; i < 6; i++ {
		cfg := tinyCfg()
		cfg.Seed = uint64(i + 1)
		cfg.Granularity = core.Granularities()[i%4]
		cfgs = append(cfgs, cfg)
	}
	serial := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		serial[i] = Run(cfg)
	}
	for _, workers := range []int{1, 2, 8} {
		got := Runner{Workers: workers}.RunBatch(cfgs)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i].Config.Label != serial[i].Config.Label ||
				got[i].Config.Seed != serial[i].Config.Seed {
				t.Fatalf("workers=%d: result %d out of submission order", workers, i)
			}
			if !reflect.DeepEqual(got[i], serial[i]) {
				t.Fatalf("workers=%d: result %d differs from serial:\n%+v\n%+v",
					workers, i, got[i], serial[i])
			}
		}
	}
}

func TestRunBatchEmptyAndOversizedPool(t *testing.T) {
	if got := (Runner{Workers: 8}).RunBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	// More workers than configs must not deadlock or drop results.
	got := Runner{Workers: 16}.RunBatch([]Config{tinyCfg()})
	if len(got) != 1 || got[0].QueriesIssued == 0 {
		t.Fatalf("oversized pool: %+v", got)
	}
}

func TestRunBatchPanicPropagates(t *testing.T) {
	cfgs := []Config{tinyCfg(), tinyCfg(), tinyCfg()}
	cfgs[1].Policy = "no-such-policy"
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("bad policy spec did not panic through RunBatch")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "run 1") || !strings.Contains(msg, "no-such-policy") {
			t.Fatalf("panic message lacks failing config: %v", msg)
		}
	}()
	Runner{Workers: 4}.RunBatch(cfgs)
}

// TestParallelSerialEquivalenceExp1 is the sweep-level guarantee: Exp1 at
// bench scale produces identical Result slices and identical rendered
// tables with 1 worker and with 8.
func TestParallelSerialEquivalenceExp1(t *testing.T) {
	base := tinyCfg()
	prev := SetDefaultWorkers(1)
	defer SetDefaultWorkers(prev)
	serial := Exp1(base)

	SetDefaultWorkers(8)
	parallel := Exp1(base)

	if len(serial.Results) != len(parallel.Results) {
		t.Fatalf("result count: serial %d, parallel %d",
			len(serial.Results), len(parallel.Results))
	}
	if !reflect.DeepEqual(serial.Results, parallel.Results) {
		t.Fatal("Exp1 results differ between workers=1 and workers=8")
	}
	if serial.String() != parallel.String() {
		t.Fatalf("rendered tables differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestParallelSerialEquivalenceReplicate: same guarantee for Replicate.
func TestParallelSerialEquivalenceReplicate(t *testing.T) {
	cfg := tinyCfg()
	prev := SetDefaultWorkers(1)
	defer SetDefaultWorkers(prev)
	serial := Replicate(cfg, 6)

	SetDefaultWorkers(8)
	parallel := Replicate(cfg, 6)

	if !reflect.DeepEqual(serial.Results, parallel.Results) {
		t.Fatal("Replicate results differ between workers=1 and workers=8")
	}
	if serial.String() != parallel.String() {
		t.Fatalf("replicate summaries differ:\n%s\n%s", serial, parallel)
	}
}

// TestNoGoroutineLeakPerConfig runs one simulation from every config
// family of the evaluation and checks the goroutine count returns to
// baseline after Run — the kernel starts none, and nothing else a run
// touches (storage tier, observability) may leave one behind.
func TestNoGoroutineLeakPerConfig(t *testing.T) {
	mutations := map[string]func(*Config){
		"default":      func(c *Config) {},
		"nc":           func(c *Config) { c.Granularity = core.NoCache },
		"ac":           func(c *Config) { c.Granularity = core.AttributeCaching },
		"oc":           func(c *Config) { c.Granularity = core.ObjectCaching },
		"nq":           func(c *Config) { c.QueryKind = workload.Navigational },
		"csh":          func(c *Config) { c.Heat = ChangingSkewedHeat },
		"cyclic":       func(c *Config) { c.Heat = CyclicHeat },
		"bursty":       func(c *Config) { c.Arrival = BurstyArrival },
		"fixed-lease":  func(c *Config) { c.Coherence = coherence.FixedLeaseStrategy; c.FixedLease = 60 },
		"invalidation": func(c *Config) { c.Coherence = coherence.IRBroadcastStrategy },
		"disconnect":   func(c *Config) { c.DisconnectedClients = 1; c.DisconnectHours = 1 },
		"shed":         func(c *Config) { c.ShedThreshold = 2 },
		"broadcast": func(c *Config) {
			c.SharedHotObjects = 20
			c.BroadcastAttrs = 2
		},
	}
	for name, mut := range mutations {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cfg := tinyCfg()
			mut(&cfg)
			res := Run(cfg)
			if res.QueriesIssued == 0 {
				t.Fatal("no queries issued")
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: baseline %d, now %d",
						baseline, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
