// Package obs is the simulator's observability layer: a lock-cheap
// registry of named instruments — gauges, windowed time-series samplers,
// and distribution histograms — that the sim kernel, the network
// channels, the fault models, the client caches, and the server register
// into when a run is instrumented.
//
// Design constraints (see docs/OBSERVABILITY.md):
//
//   - Zero cost when disabled. A nil *Registry is the "off" state: every
//     constructor returns nil instruments and every instrument method is
//     nil-receiver safe, so call sites need no branches and the disabled
//     path adds no allocations to the simulation hot paths (the benchmark
//     guard in the root package pins this).
//   - Virtual time only. Sampling is driven by the simulation clock via
//     Attach — a periodic kernel event that snapshots every gauge into its
//     series. Two runs of the same seed therefore produce byte-identical
//     series, which is what makes reports reproducible.
//   - Deterministic iteration. Instruments are stored in registration
//     order (slices, never map iteration), so report output is stable.
//
// The simulation is single-threaded under the kernel's one-runnable
// discipline, so instruments are deliberately unsynchronized; a Registry
// must not be shared by concurrently executing runs (the experiment Runner
// forces instrumented batches serial, exactly as it does for tracers).
package obs

import (
	"fmt"
	"math"
	"sort"
)

// DefaultSamplePoints is how many sampling ticks Attach aims for across a
// run when the caller does not choose an interval: enough resolution to
// see warm-up convergence and burst structure without bloating reports.
const DefaultSamplePoints = 240

// Ticker is the slice of the simulation kernel the sampler needs: the
// virtual clock and deferred callbacks. *sim.Kernel satisfies it; keeping
// the dependency an interface leaves obs import-free of the kernel.
type Ticker interface {
	// Now returns the current virtual time in seconds.
	Now() float64
	// After schedules fn to run d seconds of virtual time from now.
	After(d float64, fn func())
}

// Registry owns one instrumented run's metrics. The zero value is not
// used; construct with New. A nil Registry is the disabled state: all
// methods are nil-safe and free.
type Registry struct {
	interval float64
	gauges   []*Gauge
	hists    []*Histogram
	series   []*Series
	samples  int
}

// New returns an enabled registry whose sampler fires every interval
// seconds of virtual time (interval <= 0 lets Attach derive one from the
// horizon, aiming for DefaultSamplePoints ticks).
func New(interval float64) *Registry {
	return &Registry{interval: interval}
}

// Enabled reports whether the registry collects anything; it is the
// idiomatic guard for registration blocks (r == nil is the "off" state).
func (r *Registry) Enabled() bool { return r != nil }

// Gauge is a sampled callback: each sampler tick evaluates fn and records
// (now, fn()) into the gauge's series. Callbacks must be cheap, must not
// block, and must not perturb simulation state that feeds random draws.
type Gauge struct {
	name   string
	fn     func() float64
	series *Series
}

// Gauge registers a sampled callback under name. No-op on a nil registry.
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.gauges = append(r.gauges, &Gauge{name: name, fn: fn, series: r.newSeries(name)})
}

// Histogram is a log-bucketed distribution of positive observations — the
// refresh-time (RT) distribution is the canonical user. Quantiles are
// estimated from bucket edges, so per-tick snapshots stay O(buckets).
type Histogram struct {
	name    string
	lo, hi  float64
	buckets []uint64
	under   uint64 // observations below lo (incl. zero and negative)
	over    uint64
	count   uint64
	sum     float64
}

// histogramBuckets is the fixed resolution of registry histograms: 64 log
// buckets span lo..hi with ~20% edge-to-edge growth at the default range.
const histogramBuckets = 64

// Histogram registers (or returns, by name) a log-bucketed histogram over
// [lo, hi). On a nil registry it returns nil; nil histograms accept
// Observe as a no-op.
func (r *Registry) Histogram(name string, lo, hi float64) *Histogram {
	if r == nil {
		return nil
	}
	for _, h := range r.hists {
		if h.name == name {
			return h
		}
	}
	if !(lo > 0) || hi <= lo {
		panic(fmt.Sprintf("obs: histogram %s needs hi > lo > 0", name))
	}
	h := &Histogram{name: name, lo: lo, hi: hi, buckets: make([]uint64, histogramBuckets)}
	r.hists = append(r.hists, h)
	return h
}

// Observe counts one value. Values below lo (including zero) land in the
// underflow bucket, values at or above hi in the overflow bucket.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	switch {
	case v < h.lo:
		h.under++
	case v >= h.hi:
		h.over++
	default:
		i := int(math.Log(v/h.lo) / math.Log(h.hi/h.lo) * histogramBuckets)
		if i < 0 {
			i = 0
		} else if i >= histogramBuckets {
			i = histogramBuckets - 1
		}
		h.buckets[i]++
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket edges:
// the upper edge of the bucket holding the q-th observation. Underflow
// reports lo, overflow hi. Returns 0 when empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	if rank < h.under {
		return h.lo
	}
	seen := h.under
	for i, c := range h.buckets {
		seen += c
		if rank < seen {
			return h.edge(i + 1)
		}
	}
	return h.hi
}

// Bucket is one non-empty histogram bucket: Count observations in
// [Lo, Hi). The underflow bucket has Lo = -Inf, the overflow bucket
// Hi = +Inf.
type Bucket struct {
	Lo, Hi float64
	Count  uint64
}

// Buckets lists the non-empty buckets in ascending order, underflow first
// and overflow last (nil on nil or when empty).
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	var out []Bucket
	if h.under > 0 {
		out = append(out, Bucket{math.Inf(-1), h.lo, h.under})
	}
	for i, c := range h.buckets {
		if c > 0 {
			out = append(out, Bucket{h.edge(i), h.edge(i + 1), c})
		}
	}
	if h.over > 0 {
		out = append(out, Bucket{h.hi, math.Inf(1), h.over})
	}
	return out
}

// edge returns the lower edge of bucket i (the upper edge of bucket i-1).
func (h *Histogram) edge(i int) float64 {
	return h.lo * math.Pow(h.hi/h.lo, float64(i)/histogramBuckets)
}

// Series is one named time series of (virtual time, value) samples, in
// sampling order.
type Series struct {
	// Name identifies the series (the instrument that feeds it).
	Name string
	// T and V are parallel: V[i] was sampled at virtual time T[i].
	T, V []float64
}

// Last returns the most recent sample (0,0 when empty).
func (s *Series) Last() (t, v float64) {
	if s == nil || len(s.T) == 0 {
		return 0, 0
	}
	return s.T[len(s.T)-1], s.V[len(s.V)-1]
}

// newSeries creates and tracks a series (registry must be non-nil).
func (r *Registry) newSeries(name string) *Series {
	s := &Series{Name: name}
	r.series = append(r.series, s)
	return s
}

// Series returns the series registered under name, or nil.
func (r *Registry) Series(name string) *Series {
	if r == nil {
		return nil
	}
	for _, s := range r.series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// SeriesNames returns every series name in sorted order (deterministic
// listing for manifests and debugging).
func (r *Registry) SeriesNames() []string {
	if r == nil {
		return nil
	}
	names := make([]string, len(r.series))
	for i, s := range r.series {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// AllSeries returns every series in registration order.
func (r *Registry) AllSeries() []*Series {
	if r == nil {
		return nil
	}
	return r.series
}

// Histograms returns every histogram in registration order.
func (r *Registry) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	return r.hists
}

// HistogramName returns h's registered name ("" on nil).
func (h *Histogram) HistogramName() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Samples reports how many sampler ticks have fired.
func (r *Registry) Samples() int {
	if r == nil {
		return 0
	}
	return r.samples
}

// Interval returns the effective sampling interval (0 before Attach when
// none was configured).
func (r *Registry) Interval() float64 {
	if r == nil {
		return 0
	}
	return r.interval
}

// sample snapshots every gauge into its series at time now.
func (r *Registry) sample(now float64) {
	r.samples++
	for _, g := range r.gauges {
		g.series.T = append(g.series.T, now)
		g.series.V = append(g.series.V, g.fn())
	}
}

// Attach wires the registry's periodic sampler into a kernel: one sample
// at the current time, then one every interval, with the last tick at or
// before horizon. Sampler events only read state and never schedule past
// the horizon, so attaching a registry never perturbs the simulation's
// random draws, event outcomes, or (for runs whose traffic reaches the
// horizon, i.e. all of the paper's) final clock — an instrumented run
// returns exactly the Result an uninstrumented one does.
//
// No-op on a nil registry.
func (r *Registry) Attach(k Ticker, horizon float64) {
	if r == nil {
		return
	}
	if r.interval <= 0 {
		r.interval = horizon / DefaultSamplePoints
		if r.interval <= 0 {
			r.interval = 1
		}
	}
	var tick func()
	tick = func() {
		now := k.Now()
		r.sample(now)
		if now+r.interval <= horizon {
			k.After(r.interval, tick)
		}
	}
	k.After(0, tick)
}
