package repro

import (
	"reflect"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/experiment"
	"repro/internal/federation"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/sim"
)

// obsDisabledHotPath performs every instrument operation the simulation's
// hot path can make against a disabled (nil) registry: the Enabled gate
// experiment.Run checks before wiring, plus the histogram call that sits
// inside the server's per-query loop. This is the exact shape of
// the overhead an uninstrumented run pays.
func obsDisabledHotPath(reg *obs.Registry, h *obs.Histogram) {
	if reg.Enabled() {
		panic("nil registry reported enabled")
	}
	h.Observe(0.25)
}

// TestObsDisabledAddsNoAllocs is the macro half of the zero-cost
// contract (the micro half, per-instrument, lives in internal/obs): with
// cfg.Obs unset, the observability layer must contribute zero
// allocations per operation to the simulation hot path.
func TestObsDisabledAddsNoAllocs(t *testing.T) {
	var reg *obs.Registry // cfg.Obs zero value: observability off
	h := reg.Histogram("guard.histogram", 1e-3, 1e3)
	if allocs := testing.AllocsPerRun(1000, func() {
		obsDisabledHotPath(reg, h)
	}); allocs != 0 {
		t.Fatalf("disabled observability path allocates %v allocs/op, want 0", allocs)
	}
}

// TestObsDisabledMatchesAbsent pins the stronger property behind the
// benchmark guard: a run with a nil registry is not merely cheap but
// bit-identical to one that never heard of observability, because Run
// skips registration and sampler attachment entirely.
func TestObsDisabledMatchesAbsent(t *testing.T) {
	cfg := experiment.Config{Seed: 5, Days: 0.01, NumClients: 2, NumObjects: 200}
	plain := experiment.Run(cfg)
	cfg.Obs = nil // explicit, for the reader: the zero value is "off"
	again := experiment.Run(cfg)
	if !reflect.DeepEqual(plain, again) {
		t.Fatalf("nil-registry run diverged from plain run:\n%+v\nvs\n%+v", plain, again)
	}
}

// TestObsDisabledRegistrationIsFree extends the guard to every subsystem
// that exposes a Register hook — channels, the federation backbone, and
// the broadcast program: registering against a disabled (nil) registry
// must allocate nothing and register nothing.
func TestObsDisabledRegistrationIsFree(t *testing.T) {
	var reg *obs.Registry
	k := sim.NewKernel()
	ch := network.NewChannel(k, "guard", network.WirelessBandwidthBps)
	cluster := federation.New(federation.Config{
		Kernel:     k,
		DB:         oodb.New(oodb.Config{NumObjects: 40, RelSeed: 1}),
		NumServers: 2,
	})
	program := broadcast.New([]oodb.Item{oodb.ObjectItem(1)},
		network.WirelessBandwidthBps, 0)
	if allocs := testing.AllocsPerRun(100, func() {
		ch.Register(reg, "guard")
		cluster.Register(reg, "backbone")
		program.Register(reg, "broadcast")
	}); allocs != 0 {
		t.Fatalf("disabled registration allocates %v allocs/op, want 0", allocs)
	}
	if names := reg.SeriesNames(); len(names) != 0 {
		t.Fatalf("nil registry accumulated series: %v", names)
	}
}

// BenchmarkObsDisabledHotPath reports the per-operation cost of the
// disabled observability path; run with -benchmem, the allocs/op column
// must read 0 (TestObsDisabledAddsNoAllocs enforces it).
func BenchmarkObsDisabledHotPath(b *testing.B) {
	var reg *obs.Registry
	h := reg.Histogram("guard.histogram", 1e-3, 1e3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obsDisabledHotPath(reg, h)
	}
}
