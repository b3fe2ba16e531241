package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.Count() != 0 || w.Mean() != 0 || w.Variance() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("Count = %d", w.Count())
	}
	if !almostEq(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	if !almostEq(w.Variance(), 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", w.Variance())
	}
	if !almostEq(w.Std(), 2, 1e-12) {
		t.Fatalf("Std = %v, want 2", w.Std())
	}
}

func TestWelfordSingleSample(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 || w.Std() != 0 {
		t.Fatalf("single-sample stats: mean=%v var=%v", w.Mean(), w.Variance())
	}
}

// Property: Welford matches the two-pass computation.
func TestQuickWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) / 7
		}
		var w Welford
		sum := 0.0
		for _, x := range xs {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(xs))
		return almostEq(w.Mean(), mean, 1e-9) && almostEq(w.Variance(), variance, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: merging two Welford estimators equals one pass over both inputs.
func TestQuickWelfordMerge(t *testing.T) {
	f := func(a, b []int16) bool {
		var wa, wb, all Welford
		for _, v := range a {
			wa.Add(float64(v))
			all.Add(float64(v))
		}
		for _, v := range b {
			wb.Add(float64(v))
			all.Add(float64(v))
		}
		wa.Merge(&wb)
		return wa.Count() == all.Count() &&
			almostEq(wa.Mean(), all.Mean(), 1e-9) &&
			almostEq(wa.Variance(), all.Variance(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWindowMean(t *testing.T) {
	w := MakeWindow(3)
	if w.Mean() != 0 || w.Count() != 0 || w.Size() != 3 {
		t.Fatal("empty window state wrong")
	}
	w.Add(1)
	w.Add(2)
	if !almostEq(w.Mean(), 1.5, 1e-12) {
		t.Fatalf("Mean %v", w.Mean())
	}
	w.Add(3)
	w.Add(10) // evicts 1
	if !almostEq(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean after eviction %v, want 5", w.Mean())
	}
	if w.Count() != 3 {
		t.Fatalf("Count %d", w.Count())
	}
}

// Property: window mean equals the mean of the last W observations.
func TestQuickWindowMatchesNaive(t *testing.T) {
	f := func(raw []uint16, sizeRaw uint8) bool {
		size := int(sizeRaw)%10 + 1
		w := MakeWindow(size)
		var hist []float64
		for _, v := range raw {
			x := float64(v)
			w.Add(x)
			hist = append(hist, x)
			start := len(hist) - size
			if start < 0 {
				start = 0
			}
			sum := 0.0
			for _, h := range hist[start:] {
				sum += h
			}
			want := sum / float64(len(hist[start:]))
			if !almostEq(w.Mean(), want, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWindowPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MakeWindow(0) did not panic")
		}
	}()
	MakeWindow(0)
}

func TestInterArrival(t *testing.T) {
	var ia InterArrival
	if _, ok := ia.Last(); ok {
		t.Fatal("empty InterArrival claims a last event")
	}
	ia.Observe(10)
	if ia.Count() != 0 {
		t.Fatal("first event should record no duration")
	}
	ia.Observe(15)
	ia.Observe(25)
	if ia.Count() != 2 {
		t.Fatalf("Count %d, want 2", ia.Count())
	}
	if !almostEq(ia.Mean(), 7.5, 1e-12) {
		t.Fatalf("Mean %v, want 7.5", ia.Mean())
	}
	if !almostEq(ia.Std(), 2.5, 1e-12) {
		t.Fatalf("Std %v, want 2.5", ia.Std())
	}
	last, ok := ia.Last()
	if !ok || last != 25 {
		t.Fatalf("Last = %v,%v", last, ok)
	}
}

func TestInterArrivalClampsNegative(t *testing.T) {
	var ia InterArrival
	ia.Observe(10)
	ia.Observe(5) // out-of-order: clamped to 0 rather than negative
	if ia.Mean() != 0 {
		t.Fatalf("Mean %v, want 0", ia.Mean())
	}
}

func TestSummaryPercentiles(t *testing.T) {
	var s Summary
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if s.Count() != 100 {
		t.Fatalf("Count %d", s.Count())
	}
	if !almostEq(s.Mean(), 50.5, 1e-12) {
		t.Fatalf("Mean %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Fatalf("Min/Max %v/%v", s.Min(), s.Max())
	}
	if p := s.Percentile(50); !almostEq(p, 50.5, 1e-12) {
		t.Fatalf("p50 %v", p)
	}
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("p0 %v", p)
	}
	if p := s.Percentile(100); p != 100 {
		t.Fatalf("p100 %v", p)
	}
	if p := s.Percentile(95); p < 94 || p > 97 {
		t.Fatalf("p95 %v", p)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Std() != 0 || s.Min() != 0 || s.Max() != 0 ||
		s.Percentile(50) != 0 || s.CI95() != 0 {
		t.Fatal("empty summary not all zero")
	}
}

func TestSummaryCI95Shrinks(t *testing.T) {
	r := rng.New(1)
	var small, large Summary
	for i := 0; i < 100; i++ {
		small.Add(r.Float64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(r.Float64())
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: small=%v large=%v", small.CI95(), large.CI95())
	}
}

func TestSummaryAddAfterSortedQuery(t *testing.T) {
	var s Summary
	s.Add(5)
	_ = s.Percentile(50) // forces a sort
	s.Add(1)
	if s.Min() != 1 {
		t.Fatal("Add after Percentile broke ordering")
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(2)
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}
