// Package stats provides the online statistical estimators the caching
// mechanism is built on.
//
// The paper's two adaptive components both reduce to statistics over
// inter-arrival durations:
//
//   - cache coherence estimates a refresh time RT = d̄ + β·s from the mean
//     and standard deviation of write inter-arrivals (Welford);
//   - cache replacement scores items by the mean (Mean scheme), windowed
//     mean (Window scheme), or exponentially weighted moving average
//     (EWMA scheme) of access inter-arrivals. The Window bookkeeping lives
//     here; the Mean and EWMA recurrences are per-item state records in
//     internal/replacement (states.go), one formula each.
//
// All estimators here are O(1) or O(W) space and update in O(1) time,
// matching the constraints §3.3 of the paper puts on a resource-limited
// mobile client.
package stats

import "math"

// Welford is a numerically stable online estimator of mean and variance
// (Welford's algorithm). The zero value is ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the sample mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (0 for fewer than 2 samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// Merge combines another estimator's observations into w (parallel-merge
// form of Welford); used to aggregate per-client response time statistics.
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.mean += delta * float64(o.n) / float64(n)
	w.n = n
}

// Window is a fixed-size sliding window of the most recent observations
// with an O(1) running mean — the paper's Window scheme bookkeeping.
type Window struct {
	buf  []float64
	head int
	n    int
	sum  float64
}

// MakeWindow returns a window of the given size by value, for callers that
// embed windows in slices or pools. It panics if size <= 0.
func MakeWindow(size int) Window {
	if size <= 0 {
		panic("stats: Window size must be positive")
	}
	return Window{buf: make([]float64, size)}
}

// Reset discards all observations but keeps the backing buffer, so a pooled
// window can be reused without reallocating.
func (w *Window) Reset() {
	w.head, w.n, w.sum = 0, 0, 0
}

// Add pushes one observation, evicting the oldest if the window is full.
func (w *Window) Add(x float64) {
	if w.n == len(w.buf) {
		w.sum -= w.buf[w.head]
	} else {
		w.n++
	}
	w.buf[w.head] = x
	w.sum += x
	w.head = (w.head + 1) % len(w.buf)
}

// Mean returns the mean of the retained observations (0 when empty).
func (w *Window) Mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum / float64(w.n)
}

// Count returns the number of retained observations.
func (w *Window) Count() int { return w.n }

// Size returns the window capacity.
func (w *Window) Size() int { return len(w.buf) }

// Oldest returns the oldest retained observation (0 when empty).
func (w *Window) Oldest() float64 {
	if w.n == 0 {
		return 0
	}
	if w.n < len(w.buf) {
		// Buffer not yet wrapped: the oldest sample sits at slot 0.
		return w.buf[(w.head-w.n+len(w.buf))%len(w.buf)]
	}
	return w.buf[w.head]
}

// InterArrival tracks durations between consecutive event timestamps and
// feeds them to a Welford estimator. It backs the refresh-time estimator:
// the server records one InterArrival per database item's write stream.
type InterArrival struct {
	last    float64
	hasLast bool
	W       Welford
}

// Observe records an event at time t. The first event only establishes the
// reference point; subsequent events add (t − previous) as a duration.
func (ia *InterArrival) Observe(t float64) {
	if ia.hasLast {
		d := t - ia.last
		if d < 0 {
			d = 0
		}
		ia.W.Add(d)
	}
	ia.last = t
	ia.hasLast = true
}

// Count returns the number of recorded durations (events − 1).
func (ia *InterArrival) Count() uint64 { return ia.W.Count() }

// Mean returns the mean inter-arrival duration.
func (ia *InterArrival) Mean() float64 { return ia.W.Mean() }

// Std returns the population standard deviation of the durations.
func (ia *InterArrival) Std() float64 { return ia.W.Std() }

// Last returns the timestamp of the most recent event and whether one has
// been observed.
func (ia *InterArrival) Last() (float64, bool) { return ia.last, ia.hasLast }

// InterArrivalState is the full serializable state of an InterArrival
// estimator — what a persistent tier must carry to rebuild a write stream
// across restarts (exported fields so callers can marshal it directly).
type InterArrivalState struct {
	Last    float64 `json:"last"`
	HasLast bool    `json:"has_last"`
	N       uint64  `json:"n"`
	Mean    float64 `json:"mean"`
	M2      float64 `json:"m2"`
}

// State snapshots the estimator.
func (ia *InterArrival) State() InterArrivalState {
	return InterArrivalState{
		Last: ia.last, HasLast: ia.hasLast,
		N: ia.W.n, Mean: ia.W.mean, M2: ia.W.m2,
	}
}

// Restore overwrites the estimator with a previously snapshotted state.
func (ia *InterArrival) Restore(st InterArrivalState) {
	ia.last, ia.hasLast = st.Last, st.HasLast
	ia.W = Welford{n: st.N, mean: st.Mean, m2: st.M2}
}
