package replacement

// Optimized conventional policies (LRU, LRU-k, LRD, FIFO, CLOCK, Random,
// MRU) on the indexed victim-selection engine in indexed.go. Scoring
// formulas live in states.go, shared with the reference scan
// implementations in reference_test.go; the differential tests require both
// to emit bit-identical victim sequences.

import (
	"fmt"
	"math"

	"repro/internal/oodb"
	"repro/internal/rng"
)

// ---------------------------------------------------------------- LRU ----

// lru evicts the item with the oldest last access (LRU-1 in the paper).
// Single class, key = last access time: the heap root is the stalest item
// and badness (now − last) is exact in the key, so the search rarely
// descends past the root's equal-key ties.
type lru struct {
	victimCore[lruState]
}

// NewLRU returns the least-recently-used policy.
func NewLRU() Policy {
	p := &lru{}
	p.classes = []classHeap{{sc: lruScorer{p}}}
	return p
}

type lruScorer struct{ p *lru }

func (sc lruScorer) cutoff(now, best float64) float64 {
	return padCutoff(now-best, now, best)
}
func (sc lruScorer) eval(slot int32, now float64) float64 {
	return lruBadness(&sc.p.t.states[slot], now)
}

func (p *lru) Name() string { return "lru" }

func (p *lru) OnInsert(it oodb.Item, now float64) {
	if slot, ok := p.t.lookup(it); ok {
		p.touch(slot, now)
		return
	}
	slot := p.t.add(it, lruState{last: now})
	p.grow()
	p.classes[0].heap.push(slot, now)
}

func (p *lru) OnAccess(it oodb.Item, now float64) {
	slot, ok := p.t.lookup(it)
	mustTracked(p, ok, it)
	p.touch(slot, now)
}

func (p *lru) touch(slot int32, now float64) {
	p.t.states[slot].last = now
	p.classes[0].heap.update(slot, now)
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
// Indexing: two class heaps over the same slots. Items with fewer than k
// references ("infinite" class, badness ≈ +inf) are keyed by last access;
// items with a full ring ("finite" class) are keyed by the k-th last
// access. Both keys give bit-exact bounds. CRP protection is a property of
// `now`, not the key, so it is handled at evaluation time: a protected
// item's exact badness (≈ −inf) simply loses to any candidate, while the
// class bound still upper-bounds it, keeping the pruning sound.
type lruK struct {
	victimCore[int32] // slot state = index into arena

	k       int
	crp     float64
	arena   []lruKState
	history oodb.ItemIndex // retained information: item -> arena index
}

// NewLRUK returns the LRU-k policy with the default correlated reference
// period. It panics if k < 1.
func NewLRUK(k int) Policy { return NewLRUKCRP(k, DefaultCorrelatedPeriod) }

// NewLRUKCRP returns LRU-k with an explicit correlated reference period
// (0 disables reference collapsing and eviction protection).
func NewLRUKCRP(k int, crp float64) Policy {
	if k < 1 {
		panic("replacement: LRU-k requires k >= 1")
	}
	if crp < 0 {
		panic("replacement: LRU-k correlated period must be >= 0")
	}
	p := &lruK{k: k, crp: crp}
	p.classes = []classHeap{
		{sc: lruKInfScorer{p}}, // < k references, keyed by last access
		{sc: lruKFinScorer{p}}, // full ring, keyed by k-th last access
	}
	return p
}

type lruKInfScorer struct{ p *lruK }

func (sc lruKInfScorer) cutoff(now, best float64) float64 {
	// padCutoff's |best| term covers the cancellation error of
	// lruKInf - best (~1e12 magnitudes → ~milliseconds of slack).
	return padCutoff(now+(lruKInf-best), now, best)
}
func (sc lruKInfScorer) eval(slot int32, now float64) float64 {
	return lruKBadness(&sc.p.arena[sc.p.t.states[slot]], sc.p.crp, now)
}

type lruKFinScorer struct{ p *lruK }

func (sc lruKFinScorer) cutoff(now, best float64) float64 {
	return padCutoff(now-best, now, best)
}
func (sc lruKFinScorer) eval(slot int32, now float64) float64 {
	return lruKBadness(&sc.p.arena[sc.p.t.states[slot]], sc.p.crp, now)
}

func (p *lruK) Name() string { return fmt.Sprintf("lru-%d", p.k) }

// sync re-keys a slot after its state recorded an access, moving it to the
// finite class once its ring fills (rings never empty, so the reverse
// transition cannot happen).
func (p *lruK) sync(slot int32) {
	s := &p.arena[p.t.states[slot]]
	if kth, ok := s.ring.kth(); ok {
		p.classes[0].heap.remove(slot)
		p.classes[1].heap.update(slot, kth)
	} else {
		p.classes[0].heap.update(slot, s.last)
	}
}

func (p *lruK) OnInsert(it oodb.Item, now float64) {
	if slot, ok := p.t.lookup(it); ok {
		p.arena[p.t.states[slot]].record(p.crp, now)
		p.sync(slot)
		return
	}
	idx, ok := p.history.Get(it.Key())
	if !ok {
		idx = int32(len(p.arena))
		p.arena = append(p.arena, lruKState{ring: makeAccessRing(p.k)})
		p.history.Set(it.Key(), idx)
	}
	s := &p.arena[idx]
	s.record(p.crp, now)
	slot := p.t.add(it, idx)
	p.grow()
	if kth, full := s.ring.kth(); full {
		p.classes[1].heap.push(slot, kth)
	} else {
		p.classes[0].heap.push(slot, s.last)
	}
}

func (p *lruK) OnAccess(it oodb.Item, now float64) {
	slot, ok := p.t.lookup(it)
	mustTracked(p, ok, it)
	p.arena[p.t.states[slot]].record(p.crp, now)
	p.sync(slot)
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
	p.classes = []classHeap{{sc: lrdScorer{p}}}
	return p
}

type lrdScorer struct{ p *lrd }

func (sc lrdScorer) cutoff(now, best float64) float64 {
	// bound >= best ⟺ e·(1-1e-9) <= 1e-9 - best ⟺ key <= log2(rhs) + now/I.
	// LRD badness is -refs <= 0, so the engine only passes best <= 0; there
	// rhs >= 1e-9 and threshold slots have e >= 1e-9, keeping the log-domain
	// inversion well-conditioned (positive best would hit catastrophic
	// cancellation in 1e-9 - best, but nothing can score above 0 to set it).
	if best > 0 {
		return math.Inf(-1)
	}
	rhs := (1e-9 - best) / (1 - 1e-9)
	return padCutoff(math.Log2(rhs)+now/sc.p.interval, now/sc.p.interval, best)
}
func (sc lrdScorer) eval(slot int32, now float64) float64 {
	return lrdBadness(&sc.p.t.states[slot], sc.p.interval, now)
}

func (p *lrd) keyOf(s *lrdState) float64 {
	return math.Log2(s.refs) + s.lastAged/p.interval
}

func (p *lrd) Name() string { return "lrd" }

func (p *lrd) OnInsert(it oodb.Item, now float64) {
	if slot, ok := p.t.lookup(it); ok {
		p.bump(slot, now)
		return
	}
	slot := p.t.add(it, lrdState{refs: 1, enter: now, lastAged: now})
	p.grow()
	p.classes[0].heap.push(slot, p.keyOf(&p.t.states[slot]))
}

func (p *lrd) OnAccess(it oodb.Item, now float64) {
	slot, ok := p.t.lookup(it)
	mustTracked(p, ok, it)
	p.bump(slot, now)
}

func (p *lrd) bump(slot int32, now float64) {
	s := &p.t.states[slot]
	s.age(now, p.interval)
	s.refs++
	p.classes[0].heap.update(slot, p.keyOf(s))
}

// --------------------------------------------------------------- FIFO ----

// fifo evicts in insertion order, ignoring accesses. Single class keyed by
// the insertion sequence number: the heap root is always the victim.
type fifo struct {
	victimCore[fifoState]
	n uint64
}

// NewFIFO returns the first-in-first-out baseline.
func NewFIFO() Policy {
	p := &fifo{}
	p.classes = []classHeap{{sc: fifoScorer{p}}}
	return p
}

type fifoScorer struct{ p *fifo }

func (sc fifoScorer) cutoff(now, best float64) float64 {
	return padCutoff(-best, now, best)
}
func (sc fifoScorer) eval(slot int32, now float64) float64 {
	return fifoBadness(&sc.p.t.states[slot])
}

func (p *fifo) Name() string { return "fifo" }

func (p *fifo) OnInsert(it oodb.Item, now float64) {
	if _, ok := p.t.lookup(it); ok {
		return
	}
	p.n++
	slot := p.t.add(it, fifoState{seq: p.n})
	p.grow()
	p.classes[0].heap.push(slot, float64(p.n))
}

func (p *fifo) OnAccess(it oodb.Item, now float64) {
	_, ok := p.t.lookup(it)
	mustTracked(p, ok, it)
}

// -------------------------------------------------------------- CLOCK ----

// clock implements the second-chance approximation of LRU: items sit on a
// circular list with a referenced bit; the hand clears bits until it finds
// an unreferenced item. Reference bits live in a flat slice parallel to
// items (swap-moved on removal) instead of a map.
type clock struct {
	items []oodb.Item
	index oodb.ItemIndex
	ref   []bool
	stamp []uint64 // per-position selection stamp for Victims' wrap guard
	hand  int
	gen   uint64
	out   []oodb.Item // scratch returned by Victims
}

// NewClock returns the CLOCK (second chance) baseline.
func NewClock() Policy { return &clock{} }

func (p *clock) Name() string { return "clock" }

func (p *clock) OnInsert(it oodb.Item, now float64) {
	if i, ok := p.index.Get(it.Key()); ok {
		p.ref[i] = true
		return
	}
	p.index.Set(it.Key(), int32(len(p.items)))
	p.items = append(p.items, it)
	p.ref = append(p.ref, true)
	p.stamp = append(p.stamp, 0)
}

func (p *clock) OnAccess(it oodb.Item, now float64) {
	i, ok := p.index.Get(it.Key())
	mustTracked(p, ok, it)
	p.ref[i] = true
}

func (p *clock) Victim(now float64) (oodb.Item, bool) {
	if len(p.items) == 0 {
		return oodb.Item{}, false
	}
	// Each pass either clears a set bit (finitely many) or returns, so at
	// most len(items)+1 iterations run; the historical 2n+1 fallback was
	// unreachable and is gone. The hand stays on the victim (the caller's
	// Remove compacts the slot).
	for {
		if p.hand >= len(p.items) {
			p.hand = 0
		}
		if p.ref[p.hand] {
			p.ref[p.hand] = false
			p.hand++
			continue
		}
		return p.items[p.hand], true
	}
}

// Victims collects up to n victims in one continuous hand rotation rather
// than n restarted sweeps. Each victim is re-marked referenced so the
// rotation passes over it (callers evict the returned items anyway); a
// position stamp detects the wrap where every remaining item was already
// selected this call, which is where the n-sweep version's seen-set broke.
func (p *clock) Victims(now float64, n int) []oodb.Item {
	if n > len(p.items) {
		n = len(p.items)
	}
	if n <= 0 {
		return nil
	}
	p.gen++
	out := p.out[:0]
	for len(out) < n {
		if p.hand >= len(p.items) {
			p.hand = 0
		}
		if p.ref[p.hand] {
			p.ref[p.hand] = false
			p.hand++
			continue
		}
		if p.stamp[p.hand] == p.gen {
			break // wrapped onto an item already selected this call
		}
		p.stamp[p.hand] = p.gen
		out = append(out, p.items[p.hand])
		p.ref[p.hand] = true
		p.hand++
	}
	p.out = out
	return out
}

func (p *clock) Remove(it oodb.Item) {
	slot, ok := p.index.Delete(it.Key())
	if !ok {
		return
	}
	i, last := int(slot), len(p.items)-1
	if i != last {
		p.items[i] = p.items[last]
		p.ref[i] = p.ref[last]
		p.stamp[i] = p.stamp[last]
		p.index.Set(p.items[i].Key(), slot)
	}
	p.items = p.items[:last]
	p.ref = p.ref[:last]
	p.stamp = p.stamp[:last]
	if p.hand > last {
		p.hand = 0
	}
}

func (p *clock) Len() int { return len(p.items) }

// ------------------------------------------------------------- Random ----

// random evicts a uniformly random resident item.
type random struct {
	items []oodb.Item
	index oodb.ItemIndex
	rnd   *rng.Stream
	out   []oodb.Item // scratch returned by Victims
}

// NewRandom returns the random-replacement baseline using the given stream.
func NewRandom(rnd *rng.Stream) Policy {
	if rnd == nil {
		panic("replacement: NewRandom requires a stream")
	}
	return &random{rnd: rnd}
}

func (p *random) Name() string { return "random" }

func (p *random) OnInsert(it oodb.Item, now float64) {
	if _, ok := p.index.Get(it.Key()); ok {
		return
	}
	p.index.Set(it.Key(), int32(len(p.items)))
	p.items = append(p.items, it)
}

func (p *random) OnAccess(it oodb.Item, now float64) {
	_, ok := p.index.Get(it.Key())
	mustTracked(p, ok, it)
}

func (p *random) Victim(now float64) (oodb.Item, bool) {
	if len(p.items) == 0 {
		return oodb.Item{}, false
	}
	return p.items[p.rnd.Intn(len(p.items))], true
}

func (p *random) Victims(now float64, n int) []oodb.Item {
	if n > len(p.items) {
		n = len(p.items)
	}
	if n <= 0 {
		return nil
	}
	p.out = p.out[:0]
	for _, j := range p.rnd.Sample(len(p.items), n) {
		p.out = append(p.out, p.items[j])
	}
	return p.out
}

func (p *random) Remove(it oodb.Item) {
	slot, ok := p.index.Delete(it.Key())
	if !ok {
		return
	}
	last := len(p.items) - 1
	if int(slot) != last {
		p.items[slot] = p.items[last]
		p.index.Set(p.items[slot].Key(), slot)
	}
	p.items = p.items[:last]
}

func (p *random) Len() int { return len(p.items) }

// ---------------------------------------------------------------- MRU ----

// mru evicts the item with the *newest* last access — the classical
// most-recently-used policy from the replacement literature [5] surveys.
// It is pessimal on recency-friendly workloads but competitive on loops,
// making it a useful contrast on the cyclic pattern of Experiment #4.
// Single class, key = −last, so the heap root is the newest item.
type mru struct {
	victimCore[lruState]
}

// NewMRU returns the most-recently-used policy.
func NewMRU() Policy {
	p := &mru{}
	p.classes = []classHeap{{sc: mruScorer{p}}}
	return p
}

type mruScorer struct{ p *mru }

func (sc mruScorer) cutoff(now, best float64) float64 {
	return padCutoff(-best-now, now, best)
}
func (sc mruScorer) eval(slot int32, now float64) float64 {
	return mruBadness(&sc.p.t.states[slot], now)
}

func (p *mru) Name() string { return "mru" }

func (p *mru) OnInsert(it oodb.Item, now float64) {
	if slot, ok := p.t.lookup(it); ok {
		p.touch(slot, now)
		return
	}
	slot := p.t.add(it, lruState{last: now})
	p.grow()
	p.classes[0].heap.push(slot, -now)
}

func (p *mru) OnAccess(it oodb.Item, now float64) {
	slot, ok := p.t.lookup(it)
	mustTracked(p, ok, it)
	p.touch(slot, now)
}

func (p *mru) touch(slot int32, now float64) {
	p.t.states[slot].last = now
	p.classes[0].heap.update(slot, -now)
}
