package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary collects raw observations for offline summarization: percentiles,
// min/max, and confidence intervals. The experiment harness uses it for
// response-time distributions; the online estimators in stats.go are used
// inside the simulation where memory per item matters.
type Summary struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (s *Summary) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Count returns the number of observations.
func (s *Summary) Count() int { return len(s.xs) }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Std returns the sample (Bessel-corrected) standard deviation.
func (s *Summary) Std() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[0]
}

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between order statistics. Returns 0 when empty.
func (s *Summary) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min()
	}
	if p >= 100 {
		return s.Max()
	}
	s.ensureSorted()
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// CI95 returns the half-width of a 95% confidence interval on the mean
// using the normal approximation (the paper reports "very tight confidence
// intervals"; we expose them so EXPERIMENTS.md can verify the same).
func (s *Summary) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	return 1.96 * s.Std() / math.Sqrt(float64(n))
}

func (s *Summary) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// String formats the summary for experiment logs.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g p50=%.4g p95=%.4g max=%.4g",
		s.Count(), s.Mean(), s.Std(), s.Percentile(50), s.Percentile(95), s.Max())
}
