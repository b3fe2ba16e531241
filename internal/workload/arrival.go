package workload

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Arrival is a query inter-arrival process. Next returns the absolute time
// of the next query given the current time.
type Arrival interface {
	Next(r *rng.Stream, now float64) float64
}

// DefaultPoissonRate is the paper's mean query arrival rate per client:
// 0.01 queries/second.
const DefaultPoissonRate = 0.01

// poisson is a homogeneous Poisson arrival process.
type poisson struct {
	rate float64
}

// NewPoisson returns a Poisson process with the given rate (arrivals/sec).
func NewPoisson(rate float64) Arrival {
	if rate <= 0 {
		panic("workload: Poisson rate must be positive")
	}
	return &poisson{rate: rate}
}

func (p *poisson) Next(r *rng.Stream, now float64) float64 {
	return now + r.Exp(p.rate)
}

// Segment is one piece of a daily piecewise-constant rate profile.
// Hours are in [0, 24]; segments must tile the day.
type Segment struct {
	StartHour, EndHour float64
	Rate               float64 // arrivals per second during the segment
}

// bursty is a non-homogeneous Poisson process with a daily
// piecewise-constant rate profile, sampled by hazard integration (exact,
// no thinning rejection loop).
type bursty struct {
	segs []Segment
}

// SecondsPerHour and SecondsPerDay convert the paper's clock-time schedule.
const (
	SecondsPerHour = 3600.0
	SecondsPerDay  = 24 * SecondsPerHour
)

// DefaultBurstySegments is the paper's vehicle-traffic pattern: 80% of the
// day's queries cluster in a morning commute burst (07:00–10:00, rate
// 0.037) and an evening rush burst (16:00–19:00, rate 0.027); working hours
// (10:00–16:00) run at 0.005 and the remaining off hours at 0.0015. The
// daily average matches the Poisson rate of 0.01 (the text of the paper is
// garbled for the last segment; see DESIGN.md).
func DefaultBurstySegments() []Segment {
	return []Segment{
		{0, 7, 0.0015},
		{7, 10, 0.037},
		{10, 16, 0.005},
		{16, 19, 0.027},
		{19, 24, 0.0015},
	}
}

// NewBursty returns a non-homogeneous Poisson process over the given daily
// segments. Segments must be contiguous from hour 0 to hour 24 with
// positive rates.
func NewBursty(segs []Segment) Arrival {
	if len(segs) == 0 {
		panic("workload: Bursty requires segments")
	}
	expect := 0.0
	for _, s := range segs {
		if s.StartHour != expect {
			panic(fmt.Sprintf("workload: segment starts at %v, want %v", s.StartHour, expect))
		}
		if s.EndHour <= s.StartHour {
			panic("workload: empty segment")
		}
		if s.Rate <= 0 {
			panic("workload: segment rate must be positive")
		}
		expect = s.EndHour
	}
	if expect != 24 {
		panic(fmt.Sprintf("workload: segments end at hour %v, want 24", expect))
	}
	return &bursty{segs: append([]Segment(nil), segs...)}
}

// NewDefaultBursty returns the paper's Bursty arrival pattern.
func NewDefaultBursty() Arrival { return NewBursty(DefaultBurstySegments()) }

// rateAt returns the arrival rate at time-of-day tod seconds.
func (b *bursty) rateAt(tod float64) float64 {
	h := tod / SecondsPerHour
	for _, s := range b.segs {
		if h < s.EndHour {
			return s.Rate
		}
	}
	return b.segs[len(b.segs)-1].Rate
}

// segmentEnd returns the absolute time at which the segment containing t
// ends.
func (b *bursty) segmentEnd(t float64) float64 {
	day := math.Floor(t / SecondsPerDay)
	tod := t - day*SecondsPerDay
	h := tod / SecondsPerHour
	for _, s := range b.segs {
		if h < s.EndHour {
			return day*SecondsPerDay + s.EndHour*SecondsPerHour
		}
	}
	return (day + 1) * SecondsPerDay
}

func (b *bursty) Next(r *rng.Stream, now float64) float64 {
	// Draw a unit-exponential hazard target and integrate the
	// piecewise-constant rate forward until it is consumed.
	hazard := r.Exp(1)
	t := now
	for {
		day := math.Floor(t / SecondsPerDay)
		tod := t - day*SecondsPerDay
		rate := b.rateAt(tod)
		end := b.segmentEnd(t)
		span := end - t
		if consumed := rate * span; consumed < hazard {
			hazard -= consumed
			t = end
			continue
		}
		return t + hazard/rate
	}
}
