package replacement

// This file is the shared victim-selection engine behind the optimized
// replacement policies: per-slot state in a flat value slice, plus
// per-class containers of (key, slot) entries, searched
// lowest keys first until n candidates are held and then pruned by a bound.
// A class (slotClass) keeps its entries in one of two orders, chosen by
// what its key is: a class keyed by an arrival or access time is an
// arrival run, sorted by key, which entries join at the tail and leave
// near the front without sifting; every other class is a binary min-heap.
// The search reproduces the reference scan's victim choice — including its
// tie-breaking by scan position — without visiting every resident item.
// victimCore is the one skeleton: it implements every SlotCore method of an
// indexed policy, which supplies only the hook set in indexed.
//
// Correctness contract (differentially tested against the reference scan
// in reference_test.go):
//
//   - Each policy partitions its slots into one or more classes and stores,
//     per slot, a float64 key whose ascending order weakly refines the
//     class's descending badness: key(a) < key(b) must imply
//     badness(a, now) >= badness(b, now) for every query time now, under
//     the exact floating-point evaluation the reference uses. Keys never
//     have to *determine* the badness order — equal keys are always
//     tie-visited — so lossy but monotone algebraic rearrangements are
//     safe key choices.
//   - Each class has a badness upper bound B(key, now), covering every
//     slot in the class whose key is >= the argument and monotone
//     non-increasing in key; inexact bounds build their own safety padding
//     in (they are compared against the running best with no extra slack).
//     Once the selection is full, the search prunes a heap subtree, or
//     ends a run, exactly when the next key's bound falls strictly below
//     the current best, so bound ties are always visited. The engine never
//     evaluates the bound itself, only its inversion indexed.cutoff; the
//     bounds are written out beside TestBoundSoundness, which checks both
//     against eval.
//   - Visited slots are scored with indexed.eval, which evaluates the
//     *exact* reference badness formula (states.go) — one formula per
//     policy, whatever the slot's class — so candidates are compared by
//     reference semantics even where keys or bounds are approximate.
//   - Badness ties resolve exactly like the reference scan: Victim is the
//     first of Victims(now, 1), and one selection heap ranks candidates by
//     the reference's (score desc, slot asc) total order. Slot ids are the
//     owner's (core.Cache's, or the item-keyed adapter's) and evolve exactly
//     like the reference's scan positions — removal swap-moves the last slot
//     into the hole — so tie-breaks stay aligned between the two
//     implementations.

import (
	"math"
	"sort"

	"repro/internal/oodb"
)

// order is how a class keeps its entries. It follows from what the class's
// key is: byArrival for an arrival or access time, which entries mostly
// join in key order, byHeap for anything else.
type order bool

const (
	byHeap    order = false
	byArrival order = true
)

// slotClass holds one class's (key, slot) entries, keys inline, in the
// class's order. pos maps slot ids (grown via grow) to positions in ent; an
// absent slot (pos < 0) lets a policy spread its slots over several classes
// sharing one id space.
//
// A heap is a binary min-heap, ties broken by slot id, whose inline keys
// let a sift compare both children from adjacent memory.
//
// A run keeps ent[head:] sorted by key. Arrival keys almost always come at
// or above the tail, an append; a smaller one goes in by binary search plus
// a shift, so order never depends on a monotone clock. Removal leaves a
// tombstone (slot -1, key kept, so the run stays sorted) and head skips
// leading ones. An append that finds the array full compacts it instead of
// growing it when at least a quarter of it is dead, or when it has reached
// the owner's slot limit plus a quarter: a run never holds two live entries
// for one slot, so a full run at that size is at least a fifth tombstones,
// and a run that holds every resident still compacts only once per
// limit/4 appends, not on every one. Equal keys need no slot
// order, since the search visits every entry at its cutoff key, so a
// rename is a relabel.
type slotClass struct {
	order    order
	ent      []heapEnt
	pos      []int32 // slot id -> position in ent, or -1
	maxSlots int     // the owner's slot limit: pos and a heap's ent grow no larger
	head     int     // run: ent[:head] are tombstones
	dead     int     // run: tombstones in ent
}

type heapEnt struct {
	key  float64
	slot int32
}

func (a heapEnt) less(b heapEnt) bool {
	return a.key < b.key || (a.key == b.key && a.slot < b.slot)
}

// grow makes room for slot ids < n.
func (c *slotClass) grow(n int) {
	for len(c.pos) < n {
		c.pos = oodb.AppendCapped(c.pos, c.maxSlots, -1)
	}
}

// update rewrites slot's key, adding the slot if absent.
func (c *slotClass) update(slot int32, key float64) {
	e := heapEnt{key: key, slot: slot}
	i := c.pos[slot]
	if c.order == byArrival {
		if i < 0 || key != c.ent[i].key {
			c.remove(slot)
			c.push(e)
		}
		return
	}
	switch {
	case i < 0:
		c.ent = oodb.AppendCapped(c.ent, c.maxSlots, e)
		c.up(int32(len(c.ent)-1), e)
	case key < c.ent[i].key:
		c.up(i, e)
	case key > c.ent[i].key:
		c.down(i, e)
	}
}

// remove drops slot from the class; absent slots are a no-op so policies
// can blindly clear a slot from every class.
func (c *slotClass) remove(slot int32) {
	i := c.pos[slot]
	if i < 0 {
		return
	}
	c.pos[slot] = -1
	if c.order == byArrival {
		c.ent[i].slot = -1
		c.dead++
		for c.head < len(c.ent) && c.ent[c.head].slot < 0 {
			c.head++
		}
		if c.head == len(c.ent) {
			c.ent, c.head, c.dead = c.ent[:0], 0, 0
		}
		return
	}
	last := int32(len(c.ent) - 1)
	e := c.ent[last]
	c.ent = c.ent[:last]
	if i != last {
		c.fix(i, e)
	}
}

// rename re-labels slot id from as to (the owner swap-moved a resident
// into a freed slot). In a heap the slot tie-break changes, so the entry is
// re-sifted. Absent slots are a no-op.
func (c *slotClass) rename(from, to int32) {
	i := c.pos[from]
	if i < 0 {
		return
	}
	c.pos[from] = -1
	if c.order == byArrival {
		c.ent[i].slot = to
		c.pos[to] = i
		return
	}
	c.fix(i, heapEnt{key: c.ent[i].key, slot: to})
}

// push adds e to a run: appended at or above the tail, else shifted into
// place after the entries with keys no larger.
func (c *slotClass) push(e heapEnt) {
	limit := c.maxSlots + c.maxSlots/4 // tombstone room, see slotClass
	if len(c.ent) == cap(c.ent) && (4*c.dead >= cap(c.ent) || len(c.ent) >= limit) {
		c.compact()
	}
	n := len(c.ent)
	c.ent = oodb.AppendCapped(c.ent, limit, e)
	i := n
	if n > c.head && e.key < c.ent[n-1].key {
		i = c.head + sort.Search(n-c.head, func(j int) bool { return c.ent[c.head+j].key > e.key })
		copy(c.ent[i+1:], c.ent[i:n])
		c.ent[i] = e
		for j := i + 1; j <= n; j++ {
			if s := c.ent[j].slot; s >= 0 {
				c.pos[s] = int32(j)
			}
		}
	}
	c.pos[e.slot] = int32(i)
}

// compact drops a run's tombstones in place, moving the live entries to
// the front. It never reallocates: with caches that evict on every insert,
// shrinking and regrowing small arrays cost far more memory in garbage
// than the capacity it returned.
func (c *slotClass) compact() {
	live := c.ent[:0]
	for _, e := range c.ent[c.head:] {
		if e.slot >= 0 {
			c.pos[e.slot] = int32(len(live))
			live = append(live, e)
		}
	}
	c.ent, c.head, c.dead = live, 0, 0
}

// fix places e into the hole at i, sifting whichever way the order needs.
func (c *slotClass) fix(i int32, e heapEnt) {
	if i > 0 && e.less(c.ent[(i-1)/2]) {
		c.up(i, e)
	} else {
		c.down(i, e)
	}
}

// up moves the hole at i toward the root until e fits, then stores e.
func (c *slotClass) up(i int32, e heapEnt) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(c.ent[p]) {
			break
		}
		c.ent[i] = c.ent[p]
		c.pos[c.ent[i].slot] = i
		i = p
	}
	c.ent[i] = e
	c.pos[e.slot] = i
}

// down moves the hole at i toward the leaves until e fits, then stores e.
func (c *slotClass) down(i int32, e heapEnt) {
	n := int32(len(c.ent))
	for {
		k := 2*i + 1
		if k >= n {
			break
		}
		if r := k + 1; r < n && c.ent[r].less(c.ent[k]) {
			k = r
		}
		if !c.ent[k].less(e) {
			break
		}
		c.ent[i] = c.ent[k]
		c.pos[c.ent[i].slot] = i
		i = k
	}
	c.ent[i] = e
	c.pos[e.slot] = i
}

// frontPush adds heap position i to front, a min-heap of positions of c
// ordered by their entries.
func (c *slotClass) frontPush(front []int32, i int32) []int32 {
	front = append(front, i)
	j := len(front) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !c.ent[i].less(c.ent[front[p]]) {
			break
		}
		front[j] = front[p]
		j = p
	}
	front[j] = i
	return front
}

// frontDown replaces front's root, whose entry is no larger than i's, with
// position i and restores the order.
func (c *slotClass) frontDown(front []int32, i int32) []int32 {
	j, n := 0, len(front)
	if n == 0 {
		return front
	}
	for {
		k := 2*j + 1
		if k >= n {
			break
		}
		if r := k + 1; r < n && c.ent[front[r]].less(c.ent[front[k]]) {
			k = r
		}
		if !c.ent[front[k]].less(c.ent[i]) {
			break
		}
		front[j] = front[k]
		j = k
	}
	front[j] = i
	return front
}

// indexed is the hook set through which victimCore drives one policy: how
// a resident's state is made, keyed and touched, and how its slots are
// scored. A policy implements it on its own type, which embeds the
// victimCore[S] that calls it.
type indexed[S any] interface {
	// enter returns the state of an item entering the table at time now,
	// which counts as its first access.
	enter(it oodb.Item, now float64) S
	// place keys slot into its class from its current state.
	place(slot int32)
	// touch records an access to slot at time now and re-keys it.
	touch(slot int32, now float64)
	// eval returns the exact reference badness of slot at time now (it may
	// lazily age the slot's state, like the reference scan does). One
	// formula serves every class of the policy.
	eval(slot int32, now float64) float64
	// cutoff inverts class's badness bound into key space: it returns a key
	// threshold such that B(key, now) >= best implies
	// key <= cutoff(class, now, best). The search prunes by
	// comparing cached keys against the cutoff — one float compare per node
	// instead of re-deriving the bound — and recomputes the cutoff only when
	// the weakest retained score changes. A cutoff may be loose upward
	// (visiting extra slots is just slower), never tight downward; inexact
	// inversions pad with padCutoff.
	cutoff(class int, now, best float64) float64
}

// padCutoff nudges a bound-inversion result upward by a relative margin
// (~4000 ulps over the magnitudes involved) so float rounding can only
// widen the visited set, never narrow it past a slot whose bound still
// reaches best.
func padCutoff(c, now, best float64) float64 {
	return c + 1e-12*(math.Abs(now)+math.Abs(best)+math.Abs(c)) + 1e-300
}

// victimCand is one entry of the selection heap.
type victimCand struct {
	slot  int32
	score float64
}

// candWeaker reports whether a is strictly weaker than b (evicted later)
// under the reference's total order: score descending, slot ascending.
func candWeaker(a, b victimCand) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.slot > b.slot
}

// Scratch is a victim search's working memory: the selection heap, the
// heap walk's frontier, and the slots Victims returns. A slot core uses it
// only inside one Victim or Victims call, so every core driven from one
// goroutine can share one, handed over by Slots; a Victims result then
// lives until the next search by any core that shares the scratch. It must
// never be shared across goroutines. The zero value is ready to use.
type Scratch struct {
	cands []victimCand
	stack []int32
	out   []int32
	idx   []int // random: the sample's index table
	pick  []int // random: the sampled slots
}

// selectWorst accumulates the n worst slots under the reference total
// order. It appends the first n candidates unordered, then heapifies once:
// from then on the root of cands is the weakest retained candidate. Because
// the order is total (slot ids are unique), the selected set — and hence the
// extraction order — is independent of visit order, so a heap walk selects
// exactly what the reference's slot-order scan selects.
type selectWorst struct {
	cands []victimCand
	n     int
}

// full reports whether cands holds n candidates, heap-ordered.
func (sw *selectWorst) full() bool { return len(sw.cands) == sw.n }

func (sw *selectWorst) offer(c victimCand) {
	if !sw.full() {
		sw.cands = append(sw.cands, c)
		if sw.full() {
			for i := sw.n/2 - 1; i >= 0; i-- {
				sw.siftDown(i)
			}
		}
		return
	}
	if !candWeaker(sw.cands[0], c) {
		return
	}
	sw.cands[0] = c
	sw.siftDown(0)
}

func (sw *selectWorst) siftDown(i int) {
	c := sw.cands[i]
	n := len(sw.cands)
	for {
		k := 2*i + 1
		if k >= n {
			break
		}
		if r := k + 1; r < n && candWeaker(sw.cands[r], sw.cands[k]) {
			k = r
		}
		if !candWeaker(sw.cands[k], c) {
			break
		}
		sw.cands[i] = sw.cands[k]
		i = k
	}
	sw.cands[i] = c
}

// extractInto writes the candidates' slots into out in the reference's
// worst-first order (score descending, slot ascending) by popping the full
// heap's weakest root into out from the back.
// len(out) == len(sw.cands) == sw.n.
func (sw *selectWorst) extractInto(out []int32) {
	for k := len(sw.cands) - 1; k >= 0; k-- {
		out[k] = sw.cands[0].slot
		sw.cands[0] = sw.cands[k]
		sw.cands = sw.cands[:k]
		if k > 0 {
			sw.siftDown(0)
		}
	}
}

// victimCore is the one skeleton of the indexed policies: the per-slot
// states, the classes, the search scratch, and every SlotCore method. A
// policy embeds it and calls init at construction with itself as the hooks.
type victimCore[S any] struct {
	h        indexed[S]
	name     string
	states   []S
	classes  []slotClass
	s        *Scratch
	maxSlots int // states grow no larger
}

// init wires the policy's hooks and name and gives it one class per
// order, class i kept in orders[i], and a scratch of its own with no slot
// limit beyond the int32 slot ids: the item-keyed adapter's, until Slots
// hands the core to an owner.
func (c *victimCore[S]) init(h indexed[S], name string, orders ...order) {
	c.h, c.name = h, name
	c.classes = make([]slotClass, len(orders))
	for i, o := range orders {
		c.classes[i].order = o
	}
	c.share(new(Scratch), math.MaxInt32)
}

func (c *victimCore[S]) share(s *Scratch, maxSlots int) {
	c.s, c.maxSlots = s, maxSlots
	for i := range c.classes {
		c.classes[i].maxSlots = maxSlots
	}
}

// Name identifies the policy (e.g. "ewma-0.5").
func (c *victimCore[S]) Name() string { return c.name }

// Insert enters a new resident at slot Len() and places it in its class.
func (c *victimCore[S]) Insert(it oodb.Item, now float64) {
	slot := int32(len(c.states))
	c.states = oodb.AppendCapped(c.states, c.maxSlots, c.h.enter(it, now))
	for i := range c.classes {
		c.classes[i].grow(len(c.states))
	}
	c.h.place(slot)
}

// Touch records an access to slot.
func (c *victimCore[S]) Touch(slot int32, now float64) { c.h.touch(slot, now) }

// Victim returns the single worst slot: the first of Victims(now, 1).
func (c *victimCore[S]) Victim(now float64) (int32, bool) {
	if v := c.Victims(now, 1); len(v) == 1 {
		return v[0], true
	}
	return -1, false
}

// Victims returns up to n slots ordered worst-first, in scratch the next
// search by any core sharing it overwrites: every class searches into one
// selection heap, the runs first, whose exact arrival order fills the
// selection from the likeliest victims and so tightens the heaps' cutoffs.
func (c *victimCore[S]) Victims(now float64, n int) []int32 {
	n = min(n, len(c.states))
	if n <= 0 {
		return nil
	}
	s := c.s
	sw := selectWorst{cands: s.cands[:0], n: n}
	for i := range c.classes {
		if c.classes[i].order == byArrival {
			c.searchRun(i, now, &sw)
		}
	}
	for i := range c.classes {
		if c.classes[i].order == byHeap {
			c.searchHeap(i, now, &sw)
		}
	}
	if cap(s.out) < len(sw.cands) {
		s.out = make([]int32, len(sw.cands))
	}
	s.out = s.out[:len(sw.cands)]
	sw.extractInto(s.out)
	s.cands = sw.cands[:0]
	return s.out
}

// Ranked is true: the selection is the n worst under one total order.
func (c *victimCore[S]) Ranked() bool { return true }

// Remove untracks slot from every class and moves the last slot's state
// into the hole, relabelling it in the classes.
func (c *victimCore[S]) Remove(slot int32) {
	for i := range c.classes {
		c.classes[i].remove(slot)
	}
	last := int32(len(c.states) - 1)
	if slot != last {
		c.states[slot] = c.states[last]
		for i := range c.classes {
			c.classes[i].rename(last, slot)
		}
	}
	var zero S
	c.states[last] = zero
	c.states = c.states[:last]
}

// Len returns the number of residents.
func (c *victimCore[S]) Len() int { return len(c.states) }

// searchRun offers run class ci's candidates to the selection in ascending
// key order: every entry while the selection holds fewer than n, then
// entries up to the cutoff derived from the weakest retained candidate
// (keys at the cutoff are visited, preserving reference tie-breaks). The
// run is sorted, so the first key above the cutoff ends the search.
func (c *victimCore[S]) searchRun(ci int, now float64, sw *selectWorst) {
	r, hk := &c.classes[ci], c.h
	cut, weakest := math.Inf(1), math.Inf(1)
	for _, e := range r.ent[r.head:] {
		if sw.full() {
			if w := sw.cands[0].score; w != weakest {
				weakest, cut = w, hk.cutoff(ci, now, w)
			}
			if e.key > cut {
				return
			}
		}
		if e.slot >= 0 {
			sw.offer(victimCand{slot: e.slot, score: hk.eval(e.slot, now)})
		}
	}
}

// searchHeap offers heap class ci's candidates to the selection. While the
// selection holds fewer than n, it visits slots in ascending key order,
// popping heap positions from a frontier min-heap seeded with the root.
// Then it walks depth-first from the remaining frontier, pruning a subtree
// when its root's key exceeds the cutoff derived from the weakest retained
// candidate (keys at the cutoff are visited, preserving reference
// tie-breaks); the cutoff changes only with the weakest score. Both
// phases offer into the one selection under its total order (score desc,
// slot asc), so visit order never changes which victims are selected, only
// how many slots are visited.
func (c *victimCore[S]) searchHeap(ci int, now float64, sw *selectWorst) {
	h, hk := &c.classes[ci], c.h
	n := int32(len(h.ent))
	if n == 0 {
		return
	}
	front := append(c.s.stack[:0], 0)
	for len(front) > 0 && !sw.full() {
		i := front[0]
		slot := h.ent[i].slot
		sw.offer(victimCand{slot: slot, score: hk.eval(slot, now)})
		l := 2*i + 1
		if l >= n { // a leaf: the last frontier position takes its place
			front = h.frontDown(front[:len(front)-1], front[len(front)-1])
			continue
		}
		front = h.frontDown(front, l) // its left child takes its place
		if l+1 < n {
			front = h.frontPush(front, l+1)
		}
	}
	cut, weakest := math.Inf(1), math.Inf(1)
	if sw.full() {
		weakest = sw.cands[0].score
		cut = hk.cutoff(ci, now, weakest)
	}
	stack := front
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		e := h.ent[i]
		if e.key > cut {
			continue // no slot in this subtree can beat the weakest retained
		}
		sw.offer(victimCand{slot: e.slot, score: hk.eval(e.slot, now)})
		if sw.full() && sw.cands[0].score != weakest {
			weakest = sw.cands[0].score
			cut = hk.cutoff(ci, now, weakest)
		}
		if l := 2*i + 1; l < n {
			stack = append(stack, l)
			if r := l + 1; r < n {
				stack = append(stack, r)
			}
		}
	}
	c.s.stack = stack
}
