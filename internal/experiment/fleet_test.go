package experiment

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fleetCfg is the smallest config that exercises cross-cell relaying.
func fleetCfg() Config {
	cfg := smallCfg()
	cfg.NumClients = 8
	cfg.Cells = 4
	return cfg
}

// TestCellOutcomeHoldsNoWorld: a finished cell hands back values. Nothing
// reachable from its outcome — through pointers, slices, maps, interfaces
// and structs — may reach the cell's kernel, clients, servers or caches,
// or every finished cell's whole world stays live until the merge.
func TestCellOutcomeHoldsNoWorld(t *testing.T) {
	world := map[reflect.Type]bool{
		reflect.TypeOf((*sim.Kernel)(nil)):    true,
		reflect.TypeOf((*client.Client)(nil)): true,
		reflect.TypeOf((*server.Server)(nil)): true,
		reflect.TypeOf((*core.Cache)(nil)):    true,
	}
	type visit struct {
		ptr uintptr
		typ reflect.Type
	}
	fleet := fleetCfg()
	fleet.RelayObjects = 20 // relay caches are core.Caches too
	for _, cfg := range []Config{smallCfg(), fleet} {
		cfg = Defaults(cfg)
		schedules := workload.BuildSchedules(workload.DisconnectConfig{
			NumClients: cfg.NumClients,
			Days:       int(math.Ceil(cfg.Days)),
			Seed:       cfg.Seed,
		})
		out := runCell(cfg, 0, schedules)
		seen := map[visit]bool{}
		var walk func(v reflect.Value, path string)
		walk = func(v reflect.Value, path string) {
			if world[v.Type()] && !v.IsNil() {
				t.Fatalf("%d-cell outcome reaches a %v at %s", cfg.cells(), v.Type(), path)
			}
			switch v.Kind() {
			case reflect.Pointer:
				if v.IsNil() || seen[visit{v.Pointer(), v.Type()}] {
					return
				}
				seen[visit{v.Pointer(), v.Type()}] = true
				walk(v.Elem(), path)
			case reflect.Interface:
				if !v.IsNil() {
					walk(v.Elem(), path)
				}
			case reflect.Struct:
				for i := 0; i < v.NumField(); i++ {
					walk(v.Field(i), path+"."+v.Type().Field(i).Name)
				}
			case reflect.Slice, reflect.Array:
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
				}
			case reflect.Map:
				for it := v.MapRange(); it.Next(); {
					walk(it.Key(), path+"[key]")
					walk(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()))
				}
			}
		}
		walk(reflect.ValueOf(out), "cellOutcome")
	}
}

// TestCellsZeroAndOneIdentical: Cells is "zero means default" like every
// other field — 0 and 1 are the same single-server system, to the last
// Result field and the last trace row.
func TestCellsZeroAndOneIdentical(t *testing.T) {
	run := func(cells int) (Result, string) {
		cfg := smallCfg()
		cfg.Cells = cells
		var buf bytes.Buffer
		tr := trace.NewCSV(&buf)
		cfg.Tracer = tr
		res := Run(cfg)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		res.Config.Tracer = nil // each run's own tracer
		return res, buf.String()
	}
	zero, zeroTrace := run(0)
	one, oneTrace := run(1)
	one.Config.Cells = 0 // the one field that differs by construction
	if !reflect.DeepEqual(zero, one) {
		t.Fatalf("Cells 0 and Cells 1 diverge:\n%+v\nvs\n%+v", zero, one)
	}
	if zeroTrace != oneTrace || zeroTrace == "" {
		t.Fatalf("trace CSVs differ or are empty (%d vs %d bytes)", len(zeroTrace), len(oneTrace))
	}
}

// TestCellFaultSeedRule pins where a cell's channel faults draw from: the
// single-server system keeps Config.FaultConfig's stream (every
// single-cell faulted golden was recorded on it), the cells of a fleet
// each derive their own so burst outages do not synchronize across cells.
// The frame counts below are the parent commit's: a 1-cell and a 2-cell
// lossy run of one config must keep losing different frames.
func TestCellFaultSeedRule(t *testing.T) {
	cfg := tinyCfg()
	cfg.NumClients = 4
	cfg.LossRate = 0.1
	for _, cells := range []int{0, 1} {
		cfg.Cells = cells
		if got := cfg.cellFaultConfig(0); got != cfg.FaultConfig() {
			t.Fatalf("Cells=%d: cell fault config %+v, want FaultConfig() %+v", cells, got, cfg.FaultConfig())
		}
	}
	one := Run(cfg)

	cfg.Cells = 2
	seeds := map[uint64]bool{cfg.FaultConfig().Seed: true}
	for cell := 0; cell < 2; cell++ {
		got := cfg.cellFaultConfig(cell)
		if want := rng.Derive(cfg.Seed, 0xfa170000+uint64(cell)).Uint64(); got.Seed != want {
			t.Fatalf("cell %d fault seed %#x, want %#x", cell, got.Seed, want)
		}
		if seeds[got.Seed] {
			t.Fatalf("cell %d shares a fault stream with another cell or the single-server run", cell)
		}
		seeds[got.Seed] = true
	}
	two := Run(cfg)
	if one.FramesLost != 28 || two.FramesLost != 39 {
		t.Fatalf("frames lost: 1 cell %d (want 28), 2 cells %d (want 39)", one.FramesLost, two.FramesLost)
	}
}

func TestFleetRunShape(t *testing.T) {
	res := Run(fleetCfg())
	if res.QueriesIssued == 0 || res.Events == 0 {
		t.Fatalf("fleet produced no work: %+v", res)
	}
	if len(res.PerClient) != 8 {
		t.Fatalf("per-client rows %d, want 8", len(res.PerClient))
	}
	if res.BackboneBytes == 0 || res.BackboneMessages == 0 {
		t.Fatal("4 cells over a partitioned database must exchange backbone traffic")
	}
	if res.Server.QueriesServed == 0 || res.Server.BufferHitRatio < 0 ||
		res.Server.BufferHitRatio > 1 {
		t.Fatalf("merged server stats malformed: %+v", res.Server)
	}
}

// TestFleetParallelInvariance is the tentpole determinism guarantee:
// identical Results (and identical Exp8 tables) with 1 worker and with 8.
func TestFleetParallelInvariance(t *testing.T) {
	cfg := fleetCfg()
	prev := SetDefaultWorkers(1)
	defer SetDefaultWorkers(prev)
	serial := Run(cfg)

	SetDefaultWorkers(8)
	parallel := Run(cfg)

	serial.Config, parallel.Config = Config{}, Config{}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("fleet results differ between workers=1 and workers=8")
	}

	base := Config{Seed: 2, NumObjects: 400, Days: 0.02}
	SetDefaultWorkers(1)
	s := exp8(base, []int{4, 8}, []int{1, 2}, false)
	SetDefaultWorkers(8)
	p := exp8(base, []int{4, 8}, []int{1, 2}, false)
	if s.String() != p.String() {
		t.Fatalf("Exp8 tables differ:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
}

func TestFleetDeterminism(t *testing.T) {
	a := Run(fleetCfg())
	b := Run(fleetCfg())
	a.Config, b.Config = Config{}, Config{}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same fleet config produced different results")
	}
}

// TestFleetRelayCacheCutsBackbone: enabling the contact servers' relay
// cache must not change what the clients asked for, and it must strictly
// reduce backbone traffic under repeated remote reads.
func TestFleetRelayCacheCutsBackbone(t *testing.T) {
	cfg := fleetCfg()
	off := Run(cfg)
	cfg.RelayObjects = 100
	on := Run(cfg)
	if on.RelayHits == 0 {
		t.Fatal("relay cache saw no hits")
	}
	if on.BackboneBytes >= off.BackboneBytes {
		t.Fatalf("relay cache did not cut backbone bytes: %d -> %d",
			off.BackboneBytes, on.BackboneBytes)
	}
	if off.RelayHits != 0 || off.RelayMisses != 0 {
		t.Fatalf("relay counters nonzero with relaying disabled: %+v", off)
	}
}
