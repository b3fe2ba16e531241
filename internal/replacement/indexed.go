package replacement

// This file is the shared victim-selection engine behind the optimized
// replacement policies: a slot table holding item state in flat value
// slices, plus slot-keyed binary min-heaps walked by a bound-pruned search
// that reproduces the reference scan's victim choice — including its
// tie-breaking by scan position — without visiting every resident item.
// victimCore is the one skeleton: it implements every Policy method of an
// indexed policy, which supplies only the hook set in indexed.
//
// Correctness contract (differentially tested against the reference scan
// in reference_test.go):
//
//   - Each policy partitions its slots into one or more classes and stores,
//     per slot, a float64 heap key whose ascending order weakly refines the
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
//     The search walks the heap from the root and prunes a subtree exactly
//     when its root's bound falls strictly below the current best, so bound
//     ties are always visited. The engine never evaluates the bound itself,
//     only its inversion indexed.cutoff; the bounds are written out beside
//     TestBoundSoundness, which checks both against eval.
//   - Visited slots are scored with indexed.eval, which evaluates the
//     *exact* reference badness formula (states.go) — one formula per
//     policy, whatever the slot's class — so candidates are compared by
//     reference semantics even where keys or bounds are approximate.
//   - Badness ties resolve exactly like the reference scan: Victim is the
//     first of Victims(now, 1), and one selection heap ranks candidates by
//     the reference's (score desc, slot asc) total order. Slot indices evolve
//     exactly like the reference's scan positions — removal swap-moves the
//     last slot into the hole — so tie-breaks stay aligned between the two
//     implementations.

import (
	"math"

	"repro/internal/oodb"
)

// slotTable tracks items and their per-item state in flat parallel slices
// ([]S values, not []*S pointers), located through an oodb.ItemIndex. Every
// policy keeps its residents in one, clock and random included. The zero
// value is an empty table.
type slotTable[S any] struct {
	items  []oodb.Item
	states []S
	index  oodb.ItemIndex
}

func (t *slotTable[S]) lookup(it oodb.Item) (int32, bool) {
	return t.index.Get(it.Key())
}

// add tracks an item lookup has just reported absent, returning its slot.
func (t *slotTable[S]) add(it oodb.Item, s S) int32 {
	slot := int32(len(t.items))
	t.index.Set(it.Key(), slot)
	t.items = append(t.items, it)
	t.states = append(t.states, s)
	return slot
}

// remove untracks the item in slot by moving the last slot into the hole
// (the reference's swap-remove, so slot order keeps matching the reference
// scan's positions). It returns the old slot id of the moved item, or -1.
func (t *slotTable[S]) remove(slot int32) (moved int32) {
	it := t.items[slot]
	last := int32(len(t.items) - 1)
	moved = -1
	if slot != last {
		t.items[slot] = t.items[last]
		t.states[slot] = t.states[last]
		t.index.Set(t.items[slot].Key(), slot)
		moved = last
	}
	var zero S
	t.items = t.items[:last]
	t.states[last] = zero
	t.states = t.states[:last]
	t.index.Delete(it.Key())
	return moved
}

// slotHeap is a binary min-heap over slot ids with cached float64 keys,
// tie-broken by ascending slot id. pos and key are dense arrays indexed by
// slot id (grown via grow); a slot may be absent (pos < 0), which lets a
// policy spread its slots across several class heaps sharing one id space.
type slotHeap struct {
	order []int32   // heap array of slot ids
	pos   []int32   // slot id -> position in order, or -1
	key   []float64 // slot id -> cached key
}

// grow makes room for slot ids < n.
func (h *slotHeap) grow(n int) {
	for len(h.pos) < n {
		h.pos = append(h.pos, -1)
		h.key = append(h.key, 0)
	}
}

func (h *slotHeap) less(a, b int32) bool {
	ka, kb := h.key[a], h.key[b]
	return ka < kb || (ka == kb && a < b)
}

// update rewrites slot's key, pushing the slot if absent.
func (h *slotHeap) update(slot int32, key float64) {
	i := h.pos[slot]
	if i < 0 {
		h.key[slot] = key
		h.pos[slot] = int32(len(h.order))
		h.order = append(h.order, slot)
		h.siftUp(h.pos[slot])
		return
	}
	old := h.key[slot]
	h.key[slot] = key
	if key < old {
		h.siftUp(i)
	} else if key > old {
		h.siftDown(i)
	}
}

// remove drops slot from the heap; absent slots are a no-op so policies can
// blindly clear a slot from every class heap.
func (h *slotHeap) remove(slot int32) {
	i := h.pos[slot]
	if i < 0 {
		return
	}
	h.pos[slot] = -1
	last := int32(len(h.order) - 1)
	if i == last {
		h.order = h.order[:last]
		return
	}
	movedSlot := h.order[last]
	h.order[i] = movedSlot
	h.pos[movedSlot] = i
	h.order = h.order[:last]
	h.siftDown(i)
	h.siftUp(h.pos[movedSlot])
}

// rename re-labels slot id from as to (the slot table swap-moved an item
// into a freed slot). The key is unchanged but the slot tie-break changes,
// so the entry is re-sifted in both directions. Absent slots are a no-op.
func (h *slotHeap) rename(from, to int32) {
	i := h.pos[from]
	if i < 0 {
		return
	}
	h.pos[from] = -1
	h.key[to] = h.key[from]
	h.pos[to] = i
	h.order[i] = to
	h.siftUp(i)
	h.siftDown(h.pos[to])
}

func (h *slotHeap) siftUp(i int32) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.order[i], h.order[parent]) {
			return
		}
		h.order[i], h.order[parent] = h.order[parent], h.order[i]
		h.pos[h.order[i]] = i
		h.pos[h.order[parent]] = parent
		i = parent
	}
}

func (h *slotHeap) siftDown(i int32) {
	n := int32(len(h.order))
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(h.order[l], h.order[smallest]) {
			smallest = l
		}
		if r < n && h.less(h.order[r], h.order[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.order[i], h.order[smallest] = h.order[smallest], h.order[i]
		h.pos[h.order[i]] = i
		h.pos[h.order[smallest]] = smallest
		i = smallest
	}
}

// indexed is the hook set through which victimCore drives one policy: how
// a resident's state is made, keyed and touched, and how its slots are
// scored. A policy implements it on its own type, which embeds the
// victimCore[S] that calls it.
type indexed[S any] interface {
	// enter returns the state of an item entering the table at time now,
	// which counts as its first access.
	enter(it oodb.Item, now float64) S
	// place keys slot into its class heap from its current state.
	place(slot int32)
	// touch records an access to slot at time now and re-keys it.
	touch(slot int32, now float64)
	// eval returns the exact reference badness of slot at time now (it may
	// lazily age the slot's state, like the reference scan does). One
	// formula serves every class of the policy.
	eval(slot int32, now float64) float64
	// cutoff inverts class's badness bound into key space: it returns a key
	// threshold such that B(key, now) >= best implies
	// key <= cutoff(class, now, best). The search prunes subtrees by
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

// selectWorst accumulates the n worst slots under the reference total
// order; the root of cands is the weakest retained candidate. Because the
// order is total (slot ids are unique), the selected set — and hence the
// extraction order — is independent of visit order, so a heap DFS selects
// exactly what the reference's slot-order scan selects.
type selectWorst struct {
	cands []victimCand
	n     int
}

func (sw *selectWorst) offer(c victimCand) {
	if len(sw.cands) < sw.n {
		sw.cands = append(sw.cands, c)
		i := len(sw.cands) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !candWeaker(sw.cands[i], sw.cands[p]) {
				break
			}
			sw.cands[i], sw.cands[p] = sw.cands[p], sw.cands[i]
			i = p
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
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(sw.cands) && candWeaker(sw.cands[l], sw.cands[smallest]) {
			smallest = l
		}
		if r < len(sw.cands) && candWeaker(sw.cands[r], sw.cands[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		sw.cands[i], sw.cands[smallest] = sw.cands[smallest], sw.cands[i]
		i = smallest
	}
}

// extractInto pops the selection heap weakest-first into out back-to-front,
// yielding the reference's worst-first ordering. len(out) == len(sw.cands).
func (sw *selectWorst) extractInto(items []oodb.Item, out []oodb.Item) {
	for i := len(sw.cands) - 1; i >= 0; i-- {
		out[i] = items[sw.cands[0].slot]
		last := len(sw.cands) - 1
		sw.cands[0] = sw.cands[last]
		sw.cands = sw.cands[:last]
		sw.siftDown(0)
	}
}

// classHeap is one class's heap plus the adaptive search state: sweepBias
// counts how many upcoming searches should use the flat sweep instead of
// the DFS (see victimCore.search).
type classHeap struct {
	heap      slotHeap
	sweepBias int32
}

// sweepRun is how many searches run as flat sweeps after a DFS failed to
// prune half the class, before the next DFS probe. High enough to amortize
// the probe's overhead, low enough to notice quickly when pruning starts
// working again.
const sweepRun = 15

// victimCore is the one skeleton of the indexed policies: the slot table,
// the class heaps and the search scratch, and every Policy method. A
// policy embeds it and calls init at construction with itself as the
// hooks.
type victimCore[S any] struct {
	h       indexed[S]
	name    string
	t       slotTable[S]
	classes []classHeap
	stack   []int32
	cands   []victimCand
	out     []oodb.Item // scratch returned by Victims
}

// init wires the policy's hooks and name and gives it classes class
// heaps.
func (c *victimCore[S]) init(h indexed[S], classes int, name string) {
	c.h, c.name = h, name
	c.classes = make([]classHeap, classes)
}

// Name identifies the policy (e.g. "ewma-0.5").
func (c *victimCore[S]) Name() string { return c.name }

// OnInsert touches a tracked item; otherwise it enters the table and is
// placed in its class heap.
func (c *victimCore[S]) OnInsert(it oodb.Item, now float64) {
	if slot, ok := c.t.lookup(it); ok {
		c.h.touch(slot, now)
		return
	}
	slot := c.t.add(it, c.h.enter(it, now))
	for i := range c.classes {
		c.classes[i].heap.grow(len(c.t.items))
	}
	c.h.place(slot)
}

// OnAccess touches a resident item; an untracked one panics.
func (c *victimCore[S]) OnAccess(it oodb.Item, now float64) {
	slot, ok := c.t.lookup(it)
	mustTracked(c, ok, it)
	c.h.touch(slot, now)
}

// Victim returns the single worst item: the first of Victims(now, 1).
func (c *victimCore[S]) Victim(now float64) (oodb.Item, bool) {
	if v := c.Victims(now, 1); len(v) == 1 {
		return v[0], true
	}
	return oodb.Item{}, false
}

// Victims returns up to n items ordered worst-first, in scratch the next
// Victim or Victims call overwrites: every class searches into one
// selection heap.
func (c *victimCore[S]) Victims(now float64, n int) []oodb.Item {
	n = min(n, len(c.t.items))
	if n <= 0 {
		return nil
	}
	sw := selectWorst{cands: c.cands[:0], n: n}
	for i := range c.classes {
		c.search(i, now, &sw)
	}
	if cap(c.out) < len(sw.cands) {
		c.out = make([]oodb.Item, len(sw.cands))
	}
	c.out = c.out[:len(sw.cands)]
	sw.extractInto(c.t.items, c.out)
	c.cands = sw.cands[:0]
	return c.out
}

// Remove forgets an item; untracked items are a no-op.
func (c *victimCore[S]) Remove(it oodb.Item) {
	if slot, ok := c.t.lookup(it); ok {
		c.removeSlot(slot)
	}
}

// Len returns the number of tracked items.
func (c *victimCore[S]) Len() int { return len(c.t.items) }

// removeSlot untracks a slot from every class heap and the table, keeping
// heap slot labels aligned with the table's swap-move.
func (c *victimCore[S]) removeSlot(slot int32) {
	for i := range c.classes {
		c.classes[i].heap.remove(slot)
	}
	if moved := c.t.remove(slot); moved >= 0 {
		for i := range c.classes {
			c.classes[i].heap.rename(moved, slot)
		}
	}
}

// search offers class ci's candidates to the selection. It walks the heap
// from the root, pruning a subtree once the selection is full and the
// subtree root's key exceeds the cutoff derived from the weakest retained
// candidate (keys at the cutoff are always visited, preserving reference
// tie-breaks). The cutoff is recomputed only when the weakest score changes,
// so the per-node prune test is a single float compare.
//
// When a DFS ends up visiting at least half the class anyway — heavy score
// ties (e.g. LRD before any item has aged past an interval) or a request
// that ranks every resident leave nothing to prune — the per-node stack and
// key-compare overhead makes the walk strictly worse than a flat sweep over
// the same slots. search detects that and sweeps the class flat for the next
// sweepRun searches, re-probing with a DFS afterwards in case the regime
// changed. Both modes offer into the same selection with the same exact
// eval under the same total order (score desc, slot asc), so the switch can
// never change which victims are selected — only how many slots are visited.
func (c *victimCore[S]) search(ci int, now float64, sw *selectWorst) {
	ch, hk := &c.classes[ci], c.h
	h := &ch.heap
	n := int32(len(h.order))
	if n == 0 {
		return
	}
	if ch.sweepBias > 0 {
		ch.sweepBias--
		for _, slot := range h.order {
			sw.offer(victimCand{slot: slot, score: hk.eval(slot, now)})
		}
		return
	}
	cut := math.Inf(1)
	weakest := math.Inf(1)
	if len(sw.cands) == sw.n {
		weakest = sw.cands[0].score
		cut = hk.cutoff(ci, now, weakest)
	}
	visited := int32(0)
	stack := append(c.stack[:0], 0)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		slot := h.order[i]
		if h.key[slot] > cut {
			continue // no slot in this subtree can beat the weakest retained
		}
		visited++
		sw.offer(victimCand{slot: slot, score: hk.eval(slot, now)})
		if len(sw.cands) == sw.n && sw.cands[0].score != weakest {
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
	c.stack = stack
	if visited*2 >= n {
		ch.sweepBias = sweepRun
	}
}
