package obs

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	if h := r.Histogram("x", 1, 10); h != nil {
		t.Fatal("nil registry returned a live histogram")
	}
	r.Gauge("x", func() float64 { return 1 })
	if got := r.Series("x"); got != nil {
		t.Fatal("nil registry holds series")
	}
	if r.SeriesNames() != nil || r.AllSeries() != nil || r.Histograms() != nil {
		t.Fatal("nil registry listings non-empty")
	}
	if r.Samples() != 0 || r.Interval() != 0 {
		t.Fatal("nil registry counters non-zero")
	}
	// Attach on nil must not schedule anything.
	k := sim.NewKernel()
	r.Attach(k, 100)
	if k.RunAll() != 0 {
		t.Fatal("nil Attach scheduled events")
	}
}

// TestNilInstrumentsZeroAlloc is the micro half of the disabled-path
// guarantee: every instrument operation compiled into the simulator's hot
// paths must be free (and allocation-free) when observability is off. The
// root package's guard test asserts the same end to end.
func TestNilInstrumentsZeroAlloc(t *testing.T) {
	var h *Histogram
	var s *Series
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(1.5)
		_ = h.Quantile(0.5)
		_ = h.Mean()
		_, _ = s.Last()
	})
	if allocs != 0 {
		t.Fatalf("nil instrument ops allocated %v allocs/op, want 0", allocs)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New(1)
	h := r.Histogram("rt", 0.001, 1000)
	if again := r.Histogram("rt", 1, 2); again != h {
		t.Fatal("re-registering a histogram by name must return the same instrument")
	}
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) / 100) // 0 .. 9.99
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	if m := h.Mean(); math.Abs(m-4.995) > 1e-9 {
		t.Fatalf("mean %g, want 4.995", m)
	}
	p50 := h.Quantile(0.5)
	if p50 < 4 || p50 > 6.5 {
		t.Fatalf("p50 = %g, want ~5 within bucket resolution", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 9 || p99 > 12 {
		t.Fatalf("p99 = %g, want ~9.9 within bucket resolution", p99)
	}
	if q := h.Quantile(0); q < 0.001 {
		t.Fatalf("q0 = %g below lo", q)
	}
	// Overflow and underflow land on the range edges.
	h2 := r.Histogram("edge", 1, 10)
	h2.Observe(0)
	h2.Observe(100)
	if h2.Quantile(0) != 1 || h2.Quantile(1) != 10 {
		t.Fatalf("edge quantiles = %g, %g", h2.Quantile(0), h2.Quantile(1))
	}
	// Buckets lists only what was observed: underflow, one in-range bucket
	// holding 1 (its lower edge), overflow.
	h2.Observe(1)
	want := []Bucket{{math.Inf(-1), 1, 1}, {1, math.Pow(10, 1.0/64), 1}, {10, math.Inf(1), 1}}
	if got := h2.Buckets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
}

// mutator adapts a closure to sim.Stepper.
type mutator func(m *sim.Machine)

func (f mutator) Step(m *sim.Machine) { f(m) }

func TestSamplerOnVirtualTime(t *testing.T) {
	k := sim.NewKernel()
	r := New(10)
	v := 0.0
	r.Gauge("g", func() float64 { return v })
	n := 0.0
	r.Gauge("c", func() float64 { return n })

	// A machine that bumps the observed state between ticks: ten times, 10 s
	// apart.
	k.SpawnMachine("mutator", mutator(func(m *sim.Machine) {
		if m.Now() > 0 {
			v = m.Now()
			n++
		}
		if m.Now() == 100 {
			m.Finish()
			return
		}
		m.Hold(10)
	}))
	r.Attach(k, 100)
	k.RunAll()
	k.Drain()

	g := r.Series("g")
	cs := r.Series("c")
	if g == nil || cs == nil {
		t.Fatal("series missing")
	}
	// Ticks at 0,10,...,100 → 11 samples.
	if len(g.T) != 11 || r.Samples() != 11 {
		t.Fatalf("samples = %d (series %d), want 11", r.Samples(), len(g.T))
	}
	if g.T[0] != 0 || g.T[10] != 100 {
		t.Fatalf("tick times = %v", g.T)
	}
	// Same-time ordering: the mutator holds to t then the sampler tick at t
	// runs after it (the mutator's resume was scheduled first), so the
	// sample at t=10 already sees v=10.
	if g.V[1] != 10 {
		t.Fatalf("gauge at t=10 sampled %g", g.V[1])
	}
	if tl, vl := cs.Last(); tl != 100 || vl != 10 {
		t.Fatalf("count series last = (%g, %g), want (100, 10)", tl, vl)
	}
	if got := r.SeriesNames(); !reflect.DeepEqual(got, []string{"c", "g"}) {
		t.Fatalf("names = %v", got)
	}
}

// TestSamplerDoesNotOutliveHorizon pins the no-clock-extension contract:
// the last tick lands at or before the horizon, so sampling cannot stretch
// the final kernel time of a run whose own events reach the horizon.
func TestSamplerDoesNotOutliveHorizon(t *testing.T) {
	k := sim.NewKernel()
	r := New(30)
	r.Gauge("g", func() float64 { return 0 })
	r.Attach(k, 100) // ticks at 0, 30, 60, 90 — not 120
	end := k.RunAll()
	if end != 90 {
		t.Fatalf("final clock %g, want 90", end)
	}
	if r.Samples() != 4 {
		t.Fatalf("samples %d, want 4", r.Samples())
	}
}

func TestAttachDerivesInterval(t *testing.T) {
	k := sim.NewKernel()
	r := New(0)
	r.Gauge("g", func() float64 { return 1 })
	r.Attach(k, 480)
	if r.Interval() != 2 { // 480 / DefaultSamplePoints
		t.Fatalf("derived interval %g, want 2", r.Interval())
	}
	k.RunAll()
	if r.Samples() != DefaultSamplePoints+1 {
		t.Fatalf("samples %d, want %d", r.Samples(), DefaultSamplePoints+1)
	}
}
