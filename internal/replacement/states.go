package replacement

// This file holds the per-item state records and badness formulas shared by
// the optimized policies (conventional.go, duration.go) and the reference
// scan implementations (reference_test.go). Every scoring formula
// exists exactly once: both implementations evaluate the same
// floating-point expressions in the same order, which is what lets the
// differential tests demand bit-identical victim sequences.

import "repro/internal/stats"

// ---------------------------------------------------------- LRU / MRU ----

type lruState struct {
	last float64
}

// lruBadness is LRU's badness; MRU's is its exact negation (recency.eval).
func lruBadness(s *lruState, now float64) float64 { return now - s.last }

// -------------------------------------------------------------- LRU-k ----

// DefaultCorrelatedPeriod is the default Correlated Reference Period for
// LRU-k, in simulated seconds: references closer together than this are
// treated as one reference (a single query burst), and items referenced
// within the period are not eviction candidates. Two mean query
// inter-arrival times (2 × 1/0.01 s) covers intra-burst re-references.
const DefaultCorrelatedPeriod = 200.0

// lruKInf separates LRU-k's eviction classes (infinite backward distance >
// any finite distance > correlated-protected). It must dominate any finite
// backward distance while leaving float64 precision for the staleness
// tie-breaks added to it (ulp(1e12) ~ 1e-4 s; 1e18 would swallow them).
const lruKInf = 1e12

// ringInline is the largest k whose access ring lives entirely inside the
// item state (no per-item heap allocation). The experiments use k <= 3.
const ringInline = 8

// accessRing keeps the last k access times. It is a value type with an
// index-addressed inline backing array for k <= ringInline, so item states
// stay copy-safe under the slot table's swap-moves (a self-referential
// slice would alias the old location).
type accessRing struct {
	head   int32
	n      int32
	k      int32
	inline [ringInline]float64
	big    []float64
}

func makeAccessRing(k int) accessRing {
	r := accessRing{k: int32(k)}
	if k > ringInline {
		r.big = make([]float64, k)
	}
	return r
}

func (r *accessRing) buf() []float64 {
	if r.big != nil {
		return r.big
	}
	return r.inline[:r.k]
}

func (r *accessRing) push(t float64) {
	r.buf()[r.head] = t
	r.head = (r.head + 1) % r.k
	if r.n < r.k {
		r.n++
	}
}

// kth returns the k-th most recent access time and whether k accesses exist.
func (r *accessRing) kth() (float64, bool) {
	if r.n < r.k {
		return 0, false
	}
	return r.buf()[r.head], true // head points at the oldest retained time
}

// lruKState is an item's reference history: the ring holds uncorrelated
// reference times; last tracks the most recent (possibly correlated)
// access for CRP decisions.
type lruKState struct {
	ring accessRing
	last float64
}

// record applies one access with reference collapsing.
func (s *lruKState) record(crp, now float64) {
	if s.ring.n == 0 || now-s.last >= crp {
		s.ring.push(now)
	}
	s.last = now
}

func lruKBadness(s *lruKState, crp, now float64) float64 {
	if crp > 0 && now-s.last < crp {
		// Correlated period: protected. Orders behind every candidate;
		// among protected items the stalest goes first if eviction is
		// unavoidable.
		return -lruKInf + (now - s.last)
	}
	if kth, ok := s.ring.kth(); ok {
		return now - kth
	}
	// Infinite backward k-distance: dominates any finite distance;
	// ordered among themselves by last access.
	return lruKInf + (now - s.last)
}

// ---------------------------------------------------------------- LRD ----

// DefaultLRDInterval is the reference-count aging period used in
// Experiment #2: "the reference count of each database item is divided by 2
// every 1000 seconds".
const DefaultLRDInterval = 1000.0

type lrdState struct {
	refs     float64
	enter    float64 // first-access time
	lastAged float64
}

// age moves the count to now: halved once per interval boundary passed
// since lastAged, which ends within one interval at or before now. A clock
// that stepped back to before lastAged un-ages it, doubling once per
// boundary, so the count at now depends only on the access history, never
// on which earlier evaluations aged it further.
func (s *lrdState) age(now, interval float64) {
	for now-s.lastAged >= interval {
		s.refs /= 2
		s.lastAged += interval
	}
	for now < s.lastAged {
		s.refs *= 2
		s.lastAged -= interval
	}
}

func lrdBadness(s *lrdState, interval, now float64) float64 {
	s.age(now, interval)
	return -s.refs // min decayed density == max badness
}

// --------------------------------------------------------------- FIFO ----

type fifoState struct {
	seq uint64
}

func fifoBadness(s *fifoState) float64 { return -float64(s.seq) }

// ---------------------------------------------------------------- Mean ----

type meanState struct {
	n    uint64  // number of recorded durations
	mean float64 // running mean duration
	last float64 // last access time
}

func (s *meanState) record(now float64) {
	d := now - s.last
	if d < 0 {
		d = 0
	}
	s.mean = (float64(s.n)*s.mean + d) / float64(s.n+1)
	s.n++
	s.last = now
}

func meanBadness(s *meanState, now float64) float64 {
	if s.n == 0 {
		return now - s.last
	}
	return s.mean
}

// -------------------------------------------------------------- Window ----

type winState struct {
	win  stats.Window
	last float64
}

func (s *winState) record(now float64) {
	d := now - s.last
	if d < 0 {
		d = 0
	}
	s.win.Add(d)
	s.last = now
}

func windowBadness(s *winState, w int, now float64) float64 {
	open := now - s.last
	sum := s.win.Mean()*float64(s.win.Count()) + open
	if s.win.Count() == s.win.Size() {
		sum -= s.win.Oldest() // open interval displaces the oldest duration
	}
	return sum / float64(w)
}

// ---------------------------------------------------------------- EWMA ----

// DefaultEWMAAlpha is the paper's recommended weight (EWMA-0.5): history
// halves on every access, mirroring LRD's "divide the reference count by 2".
const DefaultEWMAAlpha = 0.5

type ewmaState struct {
	value float64 // current EWMA of durations
	n     uint64
	last  float64
}

func (s *ewmaState) record(alpha, now float64) {
	d := now - s.last
	if d < 0 {
		d = 0
	}
	if s.n == 0 {
		s.value = d
	} else {
		s.value = alpha*s.value + (1-alpha)*d
	}
	s.n++
	s.last = now
}

func ewmaBadness(s *ewmaState, alpha, now float64) float64 {
	open := now - s.last
	if s.n == 0 {
		return open
	}
	return alpha*s.value + (1-alpha)*open
}
