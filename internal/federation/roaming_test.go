package federation

import (
	"testing"
	"testing/quick"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/replacement"
	"repro/internal/server"
	"repro/internal/workload"
)

func TestMobilityCellAt(t *testing.T) {
	m := NewMobilitySchedule(0, []float64{100, 250}, []int{2, 1})
	cases := []struct {
		t    float64
		want int
	}{
		{0, 0}, {99.9, 0}, {100, 2}, {200, 2}, {249.9, 2}, {250, 1}, {1e9, 1},
	}
	for _, c := range cases {
		if got := m.CellAt(c.t); got != c.want {
			t.Fatalf("CellAt(%v) = %d, want %d", c.t, got, c.want)
		}
	}
	if m.Handoffs() != 2 {
		t.Fatalf("Handoffs = %d", m.Handoffs())
	}
}

func TestStaticCell(t *testing.T) {
	m := StaticCell(3)
	if m.CellAt(0) != 3 || m.CellAt(1e9) != 3 || m.Handoffs() != 0 {
		t.Fatal("StaticCell moves")
	}
}

func TestMobilityValidation(t *testing.T) {
	cases := []func(){
		func() { NewMobilitySchedule(0, []float64{1}, nil) },
		func() { NewMobilitySchedule(0, []float64{5, 5}, []int{1, 2}) },
		func() { NewMobilitySchedule(0, []float64{5, 4}, []int{1, 2}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestRoamerRoutesByTime(t *testing.T) {
	k, _, c := newCluster(t, 2, 0)
	roamer := c.NewRoamer(NewMobilitySchedule(0, []float64{1000}, []int{1}))
	req := server.Request{
		Granularity: core.AttributeCaching,
		Accesses:    readsOn(1), // owned by node 0
		Need:        readsOn(1),
	}
	call := roamer.NewCall()
	exec(k,
		request(call, req, nil), // t≈0: cell 0, local read
		holdUntil(2000),
		request(call, req, nil), // t=2000: cell 1, relayed read
	)
	served := roamer.ServedByCell()
	if served[0] != 1 || served[1] != 1 {
		t.Fatalf("ServedByCell = %v", served)
	}
	// After the handoff, node 0's data is remote: node 1 relays to it, so
	// node 0 served both sub-requests, node 1 one.
	if got := c.Node(0).Stats().QueriesServed; got != 2 {
		t.Fatalf("node 0 served %d, want 2", got)
	}
}

func TestRoamerHandoffChangesCost(t *testing.T) {
	// Reads of node-0 data are cheap from cell 0 and pay backbone time
	// from cell 1.
	k, _, c := newCluster(t, 2, 0)
	roamer := c.NewRoamer(NewMobilitySchedule(0, []float64{1000}, []int{1}))
	req := server.Request{
		Granularity: core.AttributeCaching,
		Accesses:    readsOn(2),
		Need:        readsOn(2),
	}
	var before, after outcome
	call := roamer.NewCall()
	exec(k, request(call, req, &before), holdUntil(5000), request(call, req, &after))
	if after.took <= before.took {
		t.Fatalf("post-handoff read (%v) not slower than home read (%v)", after.took, before.took)
	}
}

// TestRoamingClient runs a whole mobile client against a Roamer backend:
// its requests reach cell 0's contact server before the handoff and cell
// 1's after it.
func TestRoamingClient(t *testing.T) {
	k, db, c := newCluster(t, 2, 0)
	roamer := c.NewRoamer(NewMobilitySchedule(0, []float64{5000}, []int{1}))
	m := &metrics.Client{}
	client.New(client.Config{
		Kernel: k, Server: roamer,
		Up:          network.NewChannel(k, "up", network.WirelessBandwidthBps),
		Down:        network.NewChannel(k, "down", network.WirelessBandwidthBps),
		Granularity: core.AttributeCaching, Policy: replacement.NewLRU(),
		Gen: workload.NewQueryGen(workload.QueryGenConfig{
			Kind: workload.Associative, Heat: workload.NewSkewedHeat(100, 1), DB: db, Selectivity: 5,
		}),
		Arrival: workload.NewPoisson(0.01),
		Metrics: m, Seed: 1, Horizon: 10000,
	}).Start()
	k.RunAll()
	served := roamer.ServedByCell()
	if served[0] == 0 || served[1] == 0 {
		t.Fatalf("ServedByCell = %v, want requests in both cells", served)
	}
	if _, _, remote, _ := m.Queries(); served[0]+served[1] != remote {
		t.Fatalf("roamer served %d requests, client made %d round trips", served[0]+served[1], remote)
	}
}

func TestRoamerValidation(t *testing.T) {
	_, _, c := newCluster(t, 2, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nil schedule did not panic")
			}
		}()
		c.NewRoamer(nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range cell did not panic")
			}
		}()
		c.NewRoamer(StaticCell(7))
	}()
}

// Property: CellAt is piecewise-constant and consistent with the handoff
// list for arbitrary ascending schedules.
func TestQuickMobilityConsistent(t *testing.T) {
	f := func(gapsRaw []uint8, cellsRaw []uint8) bool {
		n := len(gapsRaw)
		if len(cellsRaw) < n {
			n = len(cellsRaw)
		}
		if n > 8 {
			n = 8
		}
		times := make([]float64, n)
		cells := make([]int, n)
		tcur := 0.0
		for i := 0; i < n; i++ {
			tcur += float64(gapsRaw[i]) + 1
			times[i] = tcur
			cells[i] = int(cellsRaw[i]) % 4
		}
		m := NewMobilitySchedule(0, times, cells)
		// Before the first handoff.
		if n > 0 && m.CellAt(times[0]-0.5) != 0 {
			return false
		}
		for i := 0; i < n; i++ {
			if m.CellAt(times[i]) != cells[i] {
				return false
			}
			probe := times[i] + 0.5
			if i+1 < n && probe >= times[i+1] {
				continue
			}
			if m.CellAt(probe) != cells[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
