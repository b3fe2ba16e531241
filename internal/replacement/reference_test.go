package replacement

// Reference policy implementations on the scanCore skeleton below: a full
// O(n) badness scan per victim selection. These are the pre-indexing
// implementations, kept verbatim as the correctness oracle — the
// differential tests drive each optimized policy and its reference twin
// through identical traces and require bit-identical victim sequences. They
// share the state records and badness formulas in states.go with the
// optimized implementations, so the floating-point expressions cannot drift
// apart.

import (
	"fmt"

	"repro/internal/oodb"
	"repro/internal/stats"
)

// scanCore is the shared skeleton for policies that pick victims by
// maximizing a per-item "badness" score over a deterministic scan. Item
// state lives in a slice parallel to the item list so the scan performs no
// map lookups.
type scanCore[S any] struct {
	items  []oodb.Item
	states []*S
	index  map[oodb.Item]int
	// badness scores an item for eviction at time now (higher = evict
	// sooner). It must not mutate shared state other than lazily aging s.
	badness func(s *S, now float64) float64
}

func newScanCore[S any](badness func(s *S, now float64) float64) scanCore[S] {
	return scanCore[S]{index: make(map[oodb.Item]int), badness: badness}
}

// get returns the state for a tracked item.
func (c *scanCore[S]) get(it oodb.Item) (*S, bool) {
	i, ok := c.index[it]
	if !ok {
		return nil, false
	}
	return c.states[i], true
}

// add tracks a new item with the given state; returns false if already
// tracked.
func (c *scanCore[S]) add(it oodb.Item, s *S) bool {
	if _, ok := c.index[it]; ok {
		return false
	}
	c.index[it] = len(c.items)
	c.items = append(c.items, it)
	c.states = append(c.states, s)
	return true
}

// remove untracks an item (swap with last slot).
func (c *scanCore[S]) remove(it oodb.Item) bool {
	i, ok := c.index[it]
	if !ok {
		return false
	}
	last := len(c.items) - 1
	c.items[i] = c.items[last]
	c.states[i] = c.states[last]
	c.index[c.items[i]] = i
	c.items = c.items[:last]
	c.states[last] = nil
	c.states = c.states[:last]
	delete(c.index, it)
	return true
}

func (c *scanCore[S]) len() int { return len(c.items) }

// victim returns the single worst item.
func (c *scanCore[S]) victim(now float64) (oodb.Item, bool) {
	if len(c.items) == 0 {
		return oodb.Item{}, false
	}
	best := 0
	bestScore := c.badness(c.states[0], now)
	for i := 1; i < len(c.items); i++ {
		if s := c.badness(c.states[i], now); s > bestScore {
			best, bestScore = i, s
		}
	}
	return c.items[best], true
}

// victims returns up to n items ordered worst-first using a single scan
// with a size-n selection heap (min-heap on badness so the heap root is the
// weakest of the current top-n).
func (c *scanCore[S]) victims(now float64, n int) []oodb.Item {
	if n <= 0 || len(c.items) == 0 {
		return nil
	}
	if n == 1 {
		it, _ := c.victim(now)
		return []oodb.Item{it}
	}
	if n > len(c.items) {
		n = len(c.items)
	}
	type cand struct {
		idx   int
		score float64
	}
	heap := make([]cand, 0, n)
	// less(i,j) for the min-heap: heap[i] weaker than heap[j]; ties keep
	// later scan positions weaker so the final ordering is deterministic.
	less := func(a, b cand) bool {
		if a.score != b.score {
			return a.score < b.score
		}
		return a.idx > b.idx
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < len(heap) && less(heap[l], heap[smallest]) {
				smallest = l
			}
			if r < len(heap) && less(heap[r], heap[smallest]) {
				smallest = r
			}
			if smallest == i {
				return
			}
			heap[i], heap[smallest] = heap[smallest], heap[i]
			i = smallest
		}
	}
	siftUp := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !less(heap[i], heap[parent]) {
				return
			}
			heap[i], heap[parent] = heap[parent], heap[i]
			i = parent
		}
	}
	for i := range c.items {
		sc := cand{idx: i, score: c.badness(c.states[i], now)}
		if len(heap) < n {
			heap = append(heap, sc)
			siftUp(len(heap) - 1)
			continue
		}
		if less(heap[0], sc) {
			heap[0] = sc
			siftDown(0)
		}
	}
	// Extract in increasing weakness, then reverse to worst-first.
	out := make([]oodb.Item, len(heap))
	for i := len(heap) - 1; i >= 0; i-- {
		out[i] = c.items[heap[0].idx]
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		siftDown(0)
	}
	return out
}

// newReferencePolicy builds the scanCore reference twin for a policy spec
// accepted by Parse ("lru", "lru-3", "lrd", "mean", "win-10", "ewma-0.5",
// "fifo", "clock", "mru"). The random baseline has no reference twin (it
// was never scan-based).
func newReferencePolicy(spec string) (Policy, error) {
	var (
		k int
		w int
		a float64
	)
	switch {
	case spec == "lru":
		return newRefLRU(), nil
	case spec == "lrd":
		return newRefLRD(DefaultLRDInterval), nil
	case spec == "mean":
		return newRefMean(), nil
	case spec == "fifo":
		return newRefFIFO(), nil
	case spec == "clock":
		return newRefClock(), nil
	case spec == "mru":
		return newRefMRU(), nil
	case scan1(spec, "lru-", &k) && k >= 1:
		return newRefLRUK(k, DefaultCorrelatedPeriod), nil
	case scan1(spec, "win-", &w) && w >= 1:
		return newRefWindow(w), nil
	case scan1(spec, "ewma-", &a) && a >= 0 && a < 1:
		return newRefEWMA(a), nil
	}
	return nil, fmt.Errorf("replacement: no reference twin for policy spec %q", spec)
}

// ---------------------------------------------------------------- LRU ----

type refLRU struct {
	core scanCore[lruState]
}

func newRefLRU() Policy {
	p := &refLRU{}
	p.core = newScanCore(lruBadness)
	return p
}

func (p *refLRU) Name() string { return "lru" }

func (p *refLRU) OnInsert(it oodb.Item, now float64) {
	if s, ok := p.core.get(it); ok {
		s.last = now
		return
	}
	p.core.add(it, &lruState{last: now})
}

func (p *refLRU) OnAccess(it oodb.Item, now float64) {
	s, ok := p.core.get(it)
	mustTracked(p, ok, it)
	s.last = now
}

func (p *refLRU) Victim(now float64) (oodb.Item, bool)   { return p.core.victim(now) }
func (p *refLRU) Victims(now float64, n int) []oodb.Item { return p.core.victims(now, n) }
func (p *refLRU) Remove(it oodb.Item)                    { p.core.remove(it) }
func (p *refLRU) Len() int                               { return p.core.len() }

// -------------------------------------------------------------- LRU-k ----

type refLRUK struct {
	k       int
	crp     float64
	core    scanCore[lruKState]
	history map[oodb.Item]*lruKState
}

func newRefLRUK(k int, crp float64) Policy {
	if k < 1 {
		panic("replacement: LRU-k requires k >= 1")
	}
	if crp < 0 {
		panic("replacement: LRU-k correlated period must be >= 0")
	}
	p := &refLRUK{k: k, crp: crp, history: make(map[oodb.Item]*lruKState)}
	p.core = newScanCore(func(s *lruKState, now float64) float64 {
		return lruKBadness(s, p.crp, now)
	})
	return p
}

func (p *refLRUK) Name() string { return fmt.Sprintf("lru-%d", p.k) }

func (p *refLRUK) OnInsert(it oodb.Item, now float64) {
	if s, ok := p.core.get(it); ok {
		s.record(p.crp, now)
		return
	}
	s, ok := p.history[it]
	if !ok {
		s = &lruKState{ring: makeAccessRing(p.k)}
		p.history[it] = s
	}
	s.record(p.crp, now)
	p.core.add(it, s)
}

func (p *refLRUK) OnAccess(it oodb.Item, now float64) {
	s, ok := p.core.get(it)
	mustTracked(p, ok, it)
	s.record(p.crp, now)
}

func (p *refLRUK) Victim(now float64) (oodb.Item, bool)   { return p.core.victim(now) }
func (p *refLRUK) Victims(now float64, n int) []oodb.Item { return p.core.victims(now, n) }
func (p *refLRUK) Remove(it oodb.Item)                    { p.core.remove(it) }
func (p *refLRUK) Len() int                               { return p.core.len() }

// ---------------------------------------------------------------- LRD ----

type refLRD struct {
	interval float64
	core     scanCore[lrdState]
}

func newRefLRD(interval float64) Policy {
	if interval <= 0 {
		panic("replacement: LRD interval must be positive")
	}
	p := &refLRD{interval: interval}
	p.core = newScanCore(func(s *lrdState, now float64) float64 {
		return lrdBadness(s, p.interval, now)
	})
	return p
}

func (p *refLRD) Name() string { return "lrd" }

func (p *refLRD) OnInsert(it oodb.Item, now float64) {
	if s, ok := p.core.get(it); ok {
		s.age(now, p.interval)
		s.refs++
		return
	}
	p.core.add(it, &lrdState{refs: 1, enter: now, lastAged: now})
}

func (p *refLRD) OnAccess(it oodb.Item, now float64) {
	s, ok := p.core.get(it)
	mustTracked(p, ok, it)
	s.age(now, p.interval)
	s.refs++
}

func (p *refLRD) Victim(now float64) (oodb.Item, bool)   { return p.core.victim(now) }
func (p *refLRD) Victims(now float64, n int) []oodb.Item { return p.core.victims(now, n) }
func (p *refLRD) Remove(it oodb.Item)                    { p.core.remove(it) }
func (p *refLRD) Len() int                               { return p.core.len() }

// --------------------------------------------------------------- FIFO ----

type refFIFO struct {
	core scanCore[fifoState]
	n    uint64
}

func newRefFIFO() Policy {
	p := &refFIFO{}
	p.core = newScanCore(func(s *fifoState, _ float64) float64 {
		return fifoBadness(s)
	})
	return p
}

func (p *refFIFO) Name() string { return "fifo" }

func (p *refFIFO) OnInsert(it oodb.Item, now float64) {
	if _, ok := p.core.get(it); ok {
		return
	}
	p.n++
	p.core.add(it, &fifoState{seq: p.n})
}

func (p *refFIFO) OnAccess(it oodb.Item, now float64) {
	_, ok := p.core.get(it)
	mustTracked(p, ok, it)
}

func (p *refFIFO) Victim(now float64) (oodb.Item, bool)   { return p.core.victim(now) }
func (p *refFIFO) Victims(now float64, n int) []oodb.Item { return p.core.victims(now, n) }
func (p *refFIFO) Remove(it oodb.Item)                    { p.core.remove(it) }
func (p *refFIFO) Len() int                               { return p.core.len() }

// -------------------------------------------------------------- CLOCK ----

// refClock is the pre-rotation CLOCK implementation: Victims restarts a
// bounded Victim-style sweep per candidate and tracks duplicates with a
// seen-set.
type refClock struct {
	items []oodb.Item
	index map[oodb.Item]int
	ref   map[oodb.Item]bool
	hand  int
}

func newRefClock() Policy {
	return &refClock{index: make(map[oodb.Item]int), ref: make(map[oodb.Item]bool)}
}

func (p *refClock) Name() string { return "clock" }

func (p *refClock) OnInsert(it oodb.Item, now float64) {
	if _, ok := p.index[it]; ok {
		p.ref[it] = true
		return
	}
	p.index[it] = len(p.items)
	p.items = append(p.items, it)
	p.ref[it] = true
}

func (p *refClock) OnAccess(it oodb.Item, now float64) {
	_, ok := p.index[it]
	mustTracked(p, ok, it)
	p.ref[it] = true
}

func (p *refClock) Victim(now float64) (oodb.Item, bool) {
	if len(p.items) == 0 {
		return oodb.Item{}, false
	}
	for sweep := 0; sweep < 2*len(p.items)+1; sweep++ {
		if p.hand >= len(p.items) {
			p.hand = 0
		}
		it := p.items[p.hand]
		if p.ref[it] {
			p.ref[it] = false
			p.hand++
			continue
		}
		return it, true
	}
	// All bits were set and cleared twice: fall back to the hand position.
	if p.hand >= len(p.items) {
		p.hand = 0
	}
	return p.items[p.hand], true
}

func (p *refClock) Victims(now float64, n int) []oodb.Item {
	if n > len(p.items) {
		n = len(p.items)
	}
	var out []oodb.Item
	seen := make(map[oodb.Item]bool, n)
	for len(out) < n {
		it, ok := p.Victim(now)
		if !ok || seen[it] {
			break
		}
		seen[it] = true
		out = append(out, it)
		// Mark it referenced so the next sweep passes over it; callers
		// evict (Remove) the returned items anyway, which clears state.
		p.ref[it] = true
		p.hand++
	}
	return out
}

func (p *refClock) Remove(it oodb.Item) {
	i, ok := p.index[it]
	if !ok {
		return
	}
	last := len(p.items) - 1
	p.items[i] = p.items[last]
	p.index[p.items[i]] = i
	p.items = p.items[:last]
	delete(p.index, it)
	delete(p.ref, it)
	if p.hand > last {
		p.hand = 0
	}
}

func (p *refClock) Len() int { return len(p.items) }

// ---------------------------------------------------------------- MRU ----

type refMRU struct {
	core scanCore[lruState]
}

// mruBadness equals the optimized MRU's −1·lruBadness: IEEE subtraction
// is correctly rounded, so last − now = −(now − last) exactly (a zero may
// differ in sign, and ±0 compare equal).
func mruBadness(s *lruState, now float64) float64 { return s.last - now }

func newRefMRU() Policy {
	p := &refMRU{}
	p.core = newScanCore(mruBadness)
	return p
}

func (p *refMRU) Name() string { return "mru" }

func (p *refMRU) OnInsert(it oodb.Item, now float64) {
	if s, ok := p.core.get(it); ok {
		s.last = now
		return
	}
	p.core.add(it, &lruState{last: now})
}

func (p *refMRU) OnAccess(it oodb.Item, now float64) {
	s, ok := p.core.get(it)
	mustTracked(p, ok, it)
	s.last = now
}

func (p *refMRU) Victim(now float64) (oodb.Item, bool)   { return p.core.victim(now) }
func (p *refMRU) Victims(now float64, n int) []oodb.Item { return p.core.victims(now, n) }
func (p *refMRU) Remove(it oodb.Item)                    { p.core.remove(it) }
func (p *refMRU) Len() int                               { return p.core.len() }

// ---------------------------------------------------------------- Mean ----

type refMean struct {
	core scanCore[meanState]
}

func newRefMean() Policy {
	p := &refMean{}
	p.core = newScanCore(meanBadness)
	return p
}

func (p *refMean) Name() string { return "mean" }

func (p *refMean) OnInsert(it oodb.Item, now float64) {
	if s, ok := p.core.get(it); ok {
		s.record(now)
		return
	}
	p.core.add(it, &meanState{last: now})
}

func (p *refMean) OnAccess(it oodb.Item, now float64) {
	s, ok := p.core.get(it)
	mustTracked(p, ok, it)
	s.record(now)
}

func (p *refMean) Victim(now float64) (oodb.Item, bool)   { return p.core.victim(now) }
func (p *refMean) Victims(now float64, n int) []oodb.Item { return p.core.victims(now, n) }
func (p *refMean) Remove(it oodb.Item)                    { p.core.remove(it) }
func (p *refMean) Len() int                               { return p.core.len() }

// -------------------------------------------------------------- Window ----

type refWindow struct {
	w    int
	core scanCore[winState]
}

func newRefWindow(w int) Policy {
	if w < 1 {
		panic("replacement: window size must be >= 1")
	}
	p := &refWindow{w: w}
	p.core = newScanCore(func(s *winState, now float64) float64 {
		return windowBadness(s, p.w, now)
	})
	return p
}

func (p *refWindow) Name() string { return fmt.Sprintf("win-%d", p.w) }

func (p *refWindow) OnInsert(it oodb.Item, now float64) {
	if s, ok := p.core.get(it); ok {
		s.record(now)
		return
	}
	p.core.add(it, &winState{win: stats.MakeWindow(p.w), last: now})
}

func (p *refWindow) OnAccess(it oodb.Item, now float64) {
	s, ok := p.core.get(it)
	mustTracked(p, ok, it)
	s.record(now)
}

func (p *refWindow) Victim(now float64) (oodb.Item, bool)   { return p.core.victim(now) }
func (p *refWindow) Victims(now float64, n int) []oodb.Item { return p.core.victims(now, n) }
func (p *refWindow) Remove(it oodb.Item)                    { p.core.remove(it) }
func (p *refWindow) Len() int                               { return p.core.len() }

// ---------------------------------------------------------------- EWMA ----

type refEWMA struct {
	alpha float64
	core  scanCore[ewmaState]
}

func newRefEWMA(alpha float64) Policy {
	if alpha < 0 || alpha >= 1 {
		panic("replacement: EWMA alpha must be in [0,1)")
	}
	p := &refEWMA{alpha: alpha}
	p.core = newScanCore(func(s *ewmaState, now float64) float64 {
		return ewmaBadness(s, p.alpha, now)
	})
	return p
}

func (p *refEWMA) Name() string { return fmt.Sprintf("ewma-%g", p.alpha) }

func (p *refEWMA) OnInsert(it oodb.Item, now float64) {
	if s, ok := p.core.get(it); ok {
		s.record(p.alpha, now)
		return
	}
	p.core.add(it, &ewmaState{last: now})
}

func (p *refEWMA) OnAccess(it oodb.Item, now float64) {
	s, ok := p.core.get(it)
	mustTracked(p, ok, it)
	s.record(p.alpha, now)
}

func (p *refEWMA) Victim(now float64) (oodb.Item, bool)   { return p.core.victim(now) }
func (p *refEWMA) Victims(now float64, n int) []oodb.Item { return p.core.victims(now, n) }
func (p *refEWMA) Remove(it oodb.Item)                    { p.core.remove(it) }
func (p *refEWMA) Len() int                               { return p.core.len() }
