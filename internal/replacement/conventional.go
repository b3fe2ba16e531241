package replacement

// Optimized conventional policies (LRU, MRU, LRU-k, LRD, FIFO on the
// indexed victim-selection engine in indexed.go; CLOCK and Random on slot
// ids alone). Scoring formulas live in states.go, shared with the
// reference scan implementations in reference_test.go; the differential
// tests require both to emit bit-identical victim sequences.

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/oodb"
	"repro/internal/rng"
)

// ---------------------------------------------------------- LRU / MRU ----

// recency evicts by last access. With sign +1 it is LRU (LRU-1 in the
// paper): the victim is the stalest item. With sign −1 it is MRU, which
// evicts the *newest* item — the classical most-recently-used policy from
// the replacement literature [5] surveys, pessimal on recency-friendly
// workloads but competitive on loops, making it a useful contrast on the
// cyclic pattern of Experiment #4.
//
// Indexing: badness sign·(now − last), single class keyed by sign·last, so
// the lowest key is the victim and the bound is exact; the search rarely
// visits past its equal-key ties. LRU's key is the access time, so its class
// is an arrival run; MRU's falls with time, so its class is a heap.
// Multiplying by ±1 is exact, so MRU's scores equal its reference twin's
// last − now (up to the sign of a zero, which compares equal).
type recency struct {
	victimCore[lruState]
	sign float64
}

// NewLRU returns the least-recently-used policy.
func NewLRU() Policy { return newRecency(1, "lru") }

// NewMRU returns the most-recently-used policy.
func NewMRU() Policy { return newRecency(-1, "mru") }

func newRecency(sign float64, name string) Policy {
	p := &recency{sign: sign}
	o := byHeap
	if sign > 0 {
		o = byArrival
	}
	p.init(p, name, o)
	return &keyed{core: p}
}

func (p *recency) enter(_ oodb.Item, now float64) lruState { return lruState{last: now} }

func (p *recency) place(slot int32) {
	p.classes[0].update(slot, p.sign*p.states[slot].last)
}

func (p *recency) touch(slot int32, now float64) {
	p.states[slot].last = now
	p.place(slot)
}

func (p *recency) eval(slot int32, now float64) float64 {
	return p.sign * lruBadness(&p.states[slot], now)
}

func (p *recency) cutoff(_ int, now, best float64) float64 {
	return padCutoff(p.sign*now-best, now, best)
}

// -------------------------------------------------------------- LRU-k ----

// lruK implements LRU-k [O'Neil et al., SIGMOD'93]: the victim is the item
// with the maximum backward k-distance, i.e. the oldest k-th most recent
// uncorrelated reference. Items with fewer than k references have infinite
// backward k-distance and are preferred victims, tie-broken by oldest last
// access.
//
// Two refinements from the original algorithm are essential under cache
// pressure and are implemented here:
//
//   - Retained Information: reference history survives eviction (here
//     unbounded — simulated populations are small), so a hot item is
//     recognized immediately on re-insertion instead of restarting at one
//     reference.
//   - Correlated Reference Period: references within crp seconds collapse
//     into one, and an item accessed within the last crp seconds is
//     protected from eviction — otherwise every item fetched by the
//     current query would be a prime (infinite-distance) victim for the
//     same query's later insertions.
//
// Indexing: two classes over the same slots. Items with fewer than k
// references ("infinite" class, badness ≈ +inf) are keyed by last access,
// an arrival run; items with a full ring ("finite" class) are keyed by the
// k-th last access, a heap. Both keys give bit-exact bounds. CRP
// protection is a property of `now`, not the key, so it is handled at
// evaluation time: a protected item's exact badness (≈ −inf) simply loses
// to any candidate, while the class bound still upper-bounds it, keeping
// the pruning sound.
type lruK struct {
	victimCore[int32] // slot state = index into arena

	k       int
	crp     float64
	arena   []lruKState
	history oodb.ItemIndex // retained information: item -> arena index
}

// LRU-k's classes: fewer than k references, keyed by last access, and a
// full ring, keyed by the k-th last access.
const lruKShort, lruKFull = 0, 1

// NewLRUK returns the LRU-k policy with the default correlated reference
// period. It panics if k < 1.
func NewLRUK(k int) Policy { return newLRUK(k, DefaultCorrelatedPeriod) }

// newLRUK returns LRU-k with an explicit correlated reference period
// (0 disables reference collapsing and eviction protection).
func newLRUK(k int, crp float64) Policy {
	if k < 1 {
		panic("replacement: LRU-k requires k >= 1")
	}
	if crp < 0 {
		panic("replacement: LRU-k correlated period must be >= 0")
	}
	p := &lruK{k: k, crp: crp}
	p.init(p, fmt.Sprintf("lru-%d", k), byArrival, byHeap)
	return &keyed{core: p}
}

// enter records the access in the item's retained history, creating one
// for an item never seen before.
func (p *lruK) enter(it oodb.Item, now float64) int32 {
	idx, ok := p.history.Get(it.Key())
	if !ok {
		idx = int32(len(p.arena))
		p.arena = append(p.arena, lruKState{ring: makeAccessRing(p.k)})
		p.history.Set(it.Key(), idx)
	}
	p.arena[idx].record(p.crp, now)
	return idx
}

// place keys a slot by its history, moving it to the full class once its
// ring fills (rings never empty, so the reverse transition cannot happen).
func (p *lruK) place(slot int32) {
	s := &p.arena[p.states[slot]]
	if kth, ok := s.ring.kth(); ok {
		p.classes[lruKShort].remove(slot)
		p.classes[lruKFull].update(slot, kth)
	} else {
		p.classes[lruKShort].update(slot, s.last)
	}
}

func (p *lruK) touch(slot int32, now float64) {
	p.arena[p.states[slot]].record(p.crp, now)
	p.place(slot)
}

func (p *lruK) eval(slot int32, now float64) float64 {
	return lruKBadness(&p.arena[p.states[slot]], p.crp, now)
}

func (p *lruK) cutoff(class int, now, best float64) float64 {
	if class == lruKShort {
		// padCutoff's |best| term covers the cancellation error of
		// lruKInf - best (~1e12 magnitudes → ~milliseconds of slack).
		return padCutoff(now+(lruKInf-best), now, best)
	}
	return padCutoff(now-best, now, best)
}

// ---------------------------------------------------------------- LRD ----

// lrd implements least-reference-density with periodic aging: the victim
// has the minimum time-decayed reference count, where counts are halved
// every interval seconds (applied lazily) — Experiment #2's "the reference
// count of each database item is divided by 2 every 1000 seconds". The
// halving is the aging: an item's decayed count converges to a constant
// multiple of its access rate, and the count of an abandoned item decays
// geometrically, which is what lets LRD adapt to hot-spot changes faster
// than LRU (Figure 5) while adapting slower than EWMA.
//
// Indexing: single class keyed in the log domain,
// key = log2(refs) + lastAged/interval, which is invariant under lazy
// aging (refs /= 2 and lastAged += interval cancel), so eval-time aging
// never touches the heap. The bound maps back with continuous decay —
// −exp2(key − now/interval) — which lower-bounds the stepwise-halved count
// (floor(x) ≤ x), padded for the log/exp round trip.
type lrd struct {
	victimCore[lrdState]
	interval float64
}

// NewLRD returns the LRD policy with the given aging interval.
func NewLRD(interval float64) Policy {
	if interval <= 0 {
		panic("replacement: LRD interval must be positive")
	}
	p := &lrd{interval: interval}
	p.init(p, "lrd", byHeap)
	return &keyed{core: p}
}

func (p *lrd) enter(_ oodb.Item, now float64) lrdState {
	return lrdState{refs: 1, enter: now, lastAged: now}
}

func (p *lrd) place(slot int32) {
	s := &p.states[slot]
	p.classes[0].update(slot, math.Log2(s.refs)+s.lastAged/p.interval)
}

func (p *lrd) touch(slot int32, now float64) {
	s := &p.states[slot]
	s.age(now, p.interval)
	s.refs++
	p.place(slot)
}

func (p *lrd) eval(slot int32, now float64) float64 {
	return lrdBadness(&p.states[slot], p.interval, now)
}

func (p *lrd) cutoff(_ int, now, best float64) float64 {
	// bound >= best ⟺ e·(1-1e-9) <= 1e-9 - best ⟺ key <= log2(rhs) + now/I.
	// LRD badness is -refs <= 0, so the engine only passes best <= 0; there
	// rhs >= 1e-9 and threshold slots have e >= 1e-9, keeping the log-domain
	// inversion well-conditioned (positive best would hit catastrophic
	// cancellation in 1e-9 - best, but nothing can score above 0 to set it).
	if best > 0 {
		return math.Inf(-1)
	}
	rhs := (1e-9 - best) / (1 - 1e-9)
	return padCutoff(math.Log2(rhs)+now/p.interval, now/p.interval, best)
}

// --------------------------------------------------------------- FIFO ----

// fifo evicts in insertion order, ignoring accesses. Single class keyed by
// the insertion sequence number, an arrival run whose front is always the
// victim.
type fifo struct {
	victimCore[fifoState]
	n uint64
}

// NewFIFO returns the first-in-first-out baseline.
func NewFIFO() Policy {
	p := &fifo{}
	p.init(p, "fifo", byArrival)
	return &keyed{core: p}
}

func (p *fifo) enter(oodb.Item, float64) fifoState {
	p.n++
	return fifoState{seq: p.n}
}

func (p *fifo) place(slot int32) {
	p.classes[0].update(slot, float64(p.states[slot].seq))
}

func (p *fifo) touch(int32, float64) {}

func (p *fifo) eval(slot int32, _ float64) float64 { return fifoBadness(&p.states[slot]) }

func (p *fifo) cutoff(_ int, now, best float64) float64 { return padCutoff(-best, now, best) }

// -------------------------------------------------------------- CLOCK ----

// clock implements the second-chance approximation of LRU: items sit on a
// circular list with a referenced bit; the hand clears bits until it finds
// an unreferenced item. The list is the slot order, and each slot's state
// holds its reference bit (swap-moved with it on removal).
type clock struct {
	states   []clockState
	hand     int
	gen      uint64
	s        *Scratch
	maxSlots int // states grow no larger
}

type clockState struct {
	ref   bool
	stamp uint64 // selection stamp for Victims' wrap guard
}

// NewClock returns the CLOCK (second chance) baseline.
func NewClock() Policy { return &keyed{core: &clock{s: new(Scratch), maxSlots: math.MaxInt32}} }

func (p *clock) Name() string { return "clock" }

func (p *clock) Insert(_ oodb.Item, _ float64) {
	p.states = oodb.AppendCapped(p.states, p.maxSlots, clockState{ref: true})
}

func (p *clock) Touch(slot int32, _ float64) { p.states[slot].ref = true }

// sweep advances the hand, clearing reference bits, to the first
// unreferenced slot and returns its state. There must be a resident.
// Each step either clears a set bit (finitely many) or returns, so at most
// Len()+1 steps run.
func (p *clock) sweep() *clockState {
	for {
		if p.hand >= len(p.states) {
			p.hand = 0
		}
		s := &p.states[p.hand]
		if !s.ref {
			return s
		}
		s.ref = false
		p.hand++
	}
}

// Victim leaves the hand on the victim (the owner's Remove compacts the
// slot).
func (p *clock) Victim(float64) (int32, bool) {
	if len(p.states) == 0 {
		return -1, false
	}
	p.sweep()
	return int32(p.hand), true
}

// Victims collects up to n victims in one continuous hand rotation rather
// than n restarted sweeps. Each victim is re-marked referenced so the
// rotation passes over it (callers evict the returned slots anyway); a
// position stamp detects the wrap where every remaining slot was already
// selected this call, which is where the n-sweep version's seen-set broke.
func (p *clock) Victims(_ float64, n int) []int32 {
	n = min(n, len(p.states))
	if n <= 0 {
		return nil
	}
	p.gen++
	out := p.s.out[:0]
	for len(out) < n {
		s := p.sweep()
		if s.stamp == p.gen {
			break // wrapped onto a slot already selected this call
		}
		s.stamp = p.gen
		out = append(out, int32(p.hand))
		s.ref = true
		p.hand++
	}
	p.s.out = out
	return out
}

// Ranked is false: Victims re-marks each slot it returns, so the hand's
// path, and every later choice, depends on n.
func (p *clock) Ranked() bool { return false }

func (p *clock) Remove(slot int32) {
	last := len(p.states) - 1
	p.states[slot] = p.states[last]
	p.states = p.states[:last]
	if p.hand > last {
		p.hand = 0
	}
}

func (p *clock) Len() int { return len(p.states) }

func (p *clock) share(s *Scratch, maxSlots int) { p.s, p.maxSlots = s, maxSlots }

// ------------------------------------------------------------- Random ----

// random evicts a uniformly random resident item: the stream draws slot
// ids, so the residents need no state beyond their count.
type random struct {
	n   int
	rnd *rng.Stream
	s   *Scratch
}

// NewRandom returns the random-replacement baseline using the given stream.
func NewRandom(rnd *rng.Stream) Policy {
	if rnd == nil {
		panic("replacement: NewRandom requires a stream")
	}
	return &keyed{core: &random{rnd: rnd, s: new(Scratch)}}
}

func (p *random) Name() string { return "random" }

func (p *random) Insert(oodb.Item, float64) { p.n++ }

func (p *random) Touch(int32, float64) {}

func (p *random) Victim(float64) (int32, bool) {
	if p.n == 0 {
		return -1, false
	}
	return int32(p.rnd.Intn(p.n)), true
}

func (p *random) Victims(_ float64, n int) []int32 {
	n = min(n, p.n)
	if n <= 0 {
		return nil
	}
	s := p.s
	s.idx, s.pick = slices.Grow(s.idx[:0], p.n), slices.Grow(s.pick[:0], n)
	s.out = s.out[:0]
	for _, j := range p.rnd.SampleInto(p.n, n, s.idx, s.pick) {
		s.out = append(s.out, int32(j))
	}
	return s.out
}

// Ranked is false: a sample of n draws differently from one of m.
func (p *random) Ranked() bool { return false }

func (p *random) Remove(int32) { p.n-- }

func (p *random) Len() int { return p.n }

func (p *random) share(s *Scratch, _ int) { p.s = s }
