package replacement

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/oodb"
)

// These tests are the correctness gate for the indexed victim-selection
// engine: every optimized policy is driven in lockstep with its retained
// scanCore reference twin (reference_test.go) through randomized traces —
// insert/access churn, invalidation Removes, eviction (Victim + Remove),
// bulk Victims, re-insertion after eviction, and exact timestamp ties from
// zero-gap clusters — and must produce bit-identical victim sequences.

// differentialSpecs lists every Parse spec with a reference twin, covering
// all heap-key classes: exact single-class (lru, mru, fifo), two-class
// (mean, ewma, lru-k incl. k=1 and k>ringInline), padded bounds (win,
// ewma), log-domain keys (lrd), and the non-scan clock.
var differentialSpecs = []string{
	"lru", "mru", "fifo", "clock",
	"lru-1", "lru-2", "lru-3", "lru-12",
	"lrd",
	"mean",
	"win-1", "win-3", "win-10",
	"ewma-0", "ewma-0.5", "ewma-0.9",
}

// forwardClock is comparePolicies' usual time step: up to 40 s on ~70 % of
// steps, while the zero-gap rest create exact timestamp ties (batch
// inserts), exercising the slot-order tie-breaking.
func forwardClock(rnd *rand.Rand) float64 {
	if rnd.Intn(100) < 70 {
		return rnd.Float64() * 40
	}
	return 0
}

// backwardClock is forwardClock with one step in eight turned backwards,
// the way the live store can hand a session's policy an earlier now than
// the last one (it reads the clock before taking the session's lock). Keys
// that are access times then arrive below an arrival run's tail.
func backwardClock(rnd *rand.Rand) float64 {
	d := forwardClock(rnd)
	if rnd.Intn(8) == 0 {
		return -d
	}
	return d
}

func comparePolicies(t *testing.T, opt, ref Policy, seed int64, steps, universe int, clock func(*rand.Rand) float64) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	var resident []oodb.Item
	isResident := make(map[oodb.Item]bool)
	addResident := func(it oodb.Item) {
		if !isResident[it] {
			isResident[it] = true
			resident = append(resident, it)
		}
	}
	dropResident := func(it oodb.Item) {
		if !isResident[it] {
			return
		}
		delete(isResident, it)
		for i, r := range resident {
			if r == it {
				resident[i] = resident[len(resident)-1]
				resident = resident[:len(resident)-1]
				break
			}
		}
	}
	now := 0.0
	for step := 0; step < steps; step++ {
		now += clock(rnd)
		switch op := rnd.Intn(10); {
		case op < 4: // insert or re-insert
			it := obj(rnd.Intn(universe))
			opt.OnInsert(it, now)
			ref.OnInsert(it, now)
			addResident(it)
		case op < 7: // access a resident item
			if len(resident) == 0 {
				continue
			}
			it := resident[rnd.Intn(len(resident))]
			opt.OnAccess(it, now)
			ref.OnAccess(it, now)
		case op < 8: // invalidation-style Remove
			if len(resident) == 0 {
				continue
			}
			it := resident[rnd.Intn(len(resident))]
			opt.Remove(it)
			ref.Remove(it)
			dropResident(it)
		case op < 9: // eviction: Victim then Remove
			vo, oko := opt.Victim(now)
			vr, okr := ref.Victim(now)
			if oko != okr || vo != vr {
				t.Fatalf("step %d (now=%v): Victim diverged: optimized (%v, %v), reference (%v, %v)",
					step, now, vo, oko, vr, okr)
			}
			if oko {
				opt.Remove(vo)
				ref.Remove(vo)
				dropResident(vo)
			}
		default: // bulk Victims (non-destructive, ordered worst-first)
			n := rnd.Intn(len(resident) + 3)
			a := opt.Victims(now, n)
			b := ref.Victims(now, n)
			if len(a) != len(b) {
				t.Fatalf("step %d: Victims(%d) lengths diverged: %d vs %d", step, n, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("step %d (now=%v): Victims(%d)[%d] diverged: %v vs %v\noptimized %v\nreference %v",
						step, now, n, i, a[i], b[i], a, b)
				}
			}
		}
		if opt.Len() != ref.Len() {
			t.Fatalf("step %d: Len diverged: %d vs %d", step, opt.Len(), ref.Len())
		}
	}
	// Drain: the full eviction order must match.
	for opt.Len() > 0 {
		now += rnd.Float64() * 40
		vo, _ := opt.Victim(now)
		vr, _ := ref.Victim(now)
		if vo != vr {
			t.Fatalf("drain (now=%v, %d left): Victim diverged: %v vs %v", now, opt.Len(), vo, vr)
		}
		opt.Remove(vo)
		ref.Remove(vr)
	}
}

func TestDifferentialVictimSequences(t *testing.T) {
	for _, spec := range differentialSpecs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				factory, err := Parse(spec)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := newReferencePolicy(spec)
				if err != nil {
					t.Fatal(err)
				}
				comparePolicies(t, factory(), ref, seed, 2500, 48, forwardClock)
			}
		})
	}
}

// TestDifferentialBackwardClock replays the randomized traces on a clock
// that sometimes steps back, which no simulation does but the live store
// can: every policy must still match its reference twin, arrival runs
// through their sorted inserts and LRD through its cutoff.
func TestDifferentialBackwardClock(t *testing.T) {
	for _, spec := range differentialSpecs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				factory, _ := Parse(spec)
				ref, _ := newReferencePolicy(spec)
				comparePolicies(t, factory(), ref, seed, 2500, 48, backwardClock)
			}
		})
	}
}

// TestDifferentialLargeUniverse pushes deeper heaps and more pruning: a
// larger item universe under heavier eviction pressure.
func TestDifferentialLargeUniverse(t *testing.T) {
	for _, spec := range []string{"lru", "lru-2", "lrd", "mean", "win-10", "ewma-0.5", "clock"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			factory, _ := Parse(spec)
			ref, _ := newReferencePolicy(spec)
			comparePolicies(t, factory(), ref, 99, 4000, 600, forwardClock)
		})
	}
}

// TestDifferentialLRUKCRPVariants covers correlated-reference periods the
// Parse specs cannot reach: disabled (crp=0) and much larger than the
// trace's time gaps (every item protected most of the time).
func TestDifferentialLRUKCRPVariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    int
		crp  float64
	}{
		{"k2-crp0", 2, 0},
		{"k1-crp0", 1, 0},
		{"k3-crp2000", 3, 2000},
		{"k2-crp5", 2, 5},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				comparePolicies(t, newLRUK(tc.k, tc.crp), newRefLRUK(tc.k, tc.crp), seed, 2500, 48, forwardClock)
			}
		})
	}
}

// TestDifferentialBatchTies inserts many items at identical timestamps —
// the way InsertBatch populates a cache mid-query — so victim selection is
// decided purely by tie-breaks on scan position, then drains both
// implementations and requires the same order.
func TestDifferentialBatchTies(t *testing.T) {
	for _, spec := range differentialSpecs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			factory, _ := Parse(spec)
			ref, _ := newReferencePolicy(spec)
			opt := factory()
			for wave := 0; wave < 4; wave++ {
				now := float64(wave * 500)
				for i := 0; i < 50; i++ {
					it := obj(wave*40 + i) // overlapping waves re-access some items
					opt.OnInsert(it, now)
					ref.OnInsert(it, now)
				}
				a := opt.Victims(now+1, 25)
				b := ref.Victims(now+1, 25)
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("wave %d: Victims[%d] = %v vs %v", wave, i, a[i], b[i])
					}
				}
			}
			now := 3000.0
			for opt.Len() > 0 {
				vo, _ := opt.Victim(now)
				vr, _ := ref.Victim(now)
				if vo != vr {
					t.Fatalf("drain (%d left): %v vs %v", opt.Len(), vo, vr)
				}
				opt.Remove(vo)
				ref.Remove(vr)
			}
		})
	}
}

// slotClasses exposes an indexed policy's classes to the tests.
func (c *victimCore[S]) slotClasses() []slotClass { return c.classes }

// coreOf returns the slot core behind an item-keyed policy, residents and
// all (Slots only hands over an empty one).
func coreOf(p Policy) SlotCore { return p.(*keyed).core }

// entries returns the class's live (key, slot) entries: a run's, without
// its tombstones, in key order; a heap's in heap order.
func (c *slotClass) entries() []heapEnt {
	if c.order == byHeap {
		return c.ent
	}
	var live []heapEnt
	for _, e := range c.ent[c.head:] {
		if e.slot >= 0 {
			live = append(live, e)
		}
	}
	return live
}

// TestFullRankVictims fills every class of each indexed policy and
// requires a Victims call that ranks every resident — where the walk has
// nothing to prune — and the calls after it, oversize requests and Victim
// included, to match the reference scan.
func TestFullRankVictims(t *testing.T) {
	same := func(t *testing.T, what string, a, b []oodb.Item) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d victims, reference %d", what, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s[%d] = %v, reference %v", what, i, a[i], b[i])
			}
		}
	}
	for _, spec := range []string{"lru", "mru", "fifo", "lru-2", "lrd", "mean", "win-3", "ewma-0.5"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			factory, _ := Parse(spec)
			opt := factory()
			ref, _ := newReferencePolicy(spec)
			classes := coreOf(opt).(interface{ slotClasses() []slotClass }).slotClasses()
			now := 0.0
			for i := 0; i < 40; i++ {
				if i%3 != 0 {
					now += 50 // every third insert ties the previous timestamp
				}
				opt.OnInsert(obj(i), now)
				ref.OnInsert(obj(i), now)
			}
			// Re-access every third item past LRU-k's correlated period, so
			// the two-class policies populate both classes.
			for i := 0; i < 40; i += 3 {
				now += 300
				opt.OnAccess(obj(i), now)
				ref.OnAccess(obj(i), now)
			}
			for round := 0; round < 2; round++ {
				now += 70
				full := opt.Len()
				same(t, "full-rank Victims", opt.Victims(now, full), ref.Victims(now, full))
				for ci := range classes {
					if len(classes[ci].entries()) == 0 {
						t.Fatalf("class %d is empty: the trace does not reach it", ci)
					}
				}
				for _, n := range []int{1, full / 2, full, full + 3} {
					same(t, fmt.Sprintf("round %d Victims(%d)", round, n), opt.Victims(now, n), ref.Victims(now, n))
				}
				vo, _ := opt.Victim(now)
				vr, _ := ref.Victim(now)
				if vo != vr {
					t.Fatalf("round %d: Victim = %v, reference %v", round, vo, vr)
				}
				opt.Remove(vo)
				ref.Remove(vr)
			}
		})
	}
}

// TestBoundSoundness checks the engine's pruning contract directly: for
// every class, bound(key, now) must upper-bound the exact reference
// badness of each slot in that class, for every query time — including the
// padded inexact bounds (window, ewma, lrd) whose keys algebraically
// rearrange the score formula.
func TestBoundSoundness(t *testing.T) {
	churn := func(p Policy, seed int64, steps int) float64 {
		rnd := rand.New(rand.NewSource(seed))
		isResident := make(map[oodb.Item]bool)
		var resident []oodb.Item
		now := 0.0
		for i := 0; i < steps; i++ {
			if rnd.Intn(4) > 0 {
				now += rnd.Float64() * 30
			}
			it := obj(rnd.Intn(64))
			switch rnd.Intn(5) {
			case 0, 1:
				p.OnInsert(it, now)
				if !isResident[it] {
					isResident[it] = true
					resident = append(resident, it)
				}
			case 2, 3:
				if len(resident) > 0 {
					p.OnAccess(resident[rnd.Intn(len(resident))], now)
				}
			default:
				if v, ok := p.Victim(now); ok {
					p.Remove(v)
					delete(isResident, v)
					for j, r := range resident {
						if r == v {
							resident[j] = resident[len(resident)-1]
							resident = resident[:len(resident)-1]
							break
						}
					}
				}
			}
		}
		return now
	}
	for _, p := range []Policy{
		NewLRU(), NewMRU(), NewFIFO(), NewLRUK(2), NewLRD(DefaultLRDInterval),
		NewMean(), NewWindow(10), NewEWMA(0.5),
	} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			end := churn(p, 7, 3000)
			// Mostly increasing nows, as eval lazily ages state (LRD); the
			// last steps back to before the churn's end, which the live
			// store's clock can do and LRD's bound must survive.
			for _, dt := range []float64{0, 1e-3, 1, 250, 5e4, 3e5, -100} {
				checkBounds(t, p, end+dt)
			}
		})
	}
}

// boundedPolicy is an indexed policy together with, per class, the badness
// upper bound its cutoff inverts (indexed.go's correctness contract). The
// engine only evaluates cutoffs; the bounds exist to be checked here.
type boundedPolicy interface {
	eval(slot int32, now float64) float64
	cutoff(class int, now, best float64) float64
	// bound returns an upper bound on the reference badness of every slot
	// in class whose heap key is at least key; it must be monotone
	// non-increasing in key. Inexact bounds include their own padding for
	// float rearrangement error.
	bound(class int, key, now float64) float64
	slotClasses() []slotClass
}

func (p *recency) bound(_ int, key, now float64) float64 { return p.sign*now - key }

func (p *lruK) bound(class int, key, now float64) float64 {
	if class == lruKShort {
		return lruKInf + (now - key)
	}
	return now - key
}

func (p *lrd) bound(_ int, key, now float64) float64 {
	e := math.Exp2(key - now/p.interval)
	// Padding: ~1e-12 relative error from the log2/÷/exp2 round trip and
	// subnormal crumbs from deep halving, with a 1000x safety margin.
	return -e + (1e-9 + 1e-9*e)
}

func (p *fifo) bound(_ int, key, _ float64) float64 { return -key }

func (p *meanPolicy) bound(class int, key, now float64) float64 {
	if class == fresh {
		return now - key
	}
	return -key
}

func (p *windowPolicy) bound(_ int, key, now float64) float64 {
	// Padding: the key's algebraic rearrangement of the reference formula
	// carries rounding from intermediates of magnitude up to ~W·now, a few
	// parts in 10^15 of that; pad proportionally with a large margin.
	pad := 1e-9 + 1e-13*float64(p.w+2)*(math.Abs(now)+math.Abs(key))
	return (now-key)/float64(p.w) + pad
}

func (p *ewmaPolicy) bound(class int, key, now float64) float64 {
	if class == fresh {
		return now - key
	}
	// Padding: the affine rearrangement's rounding is a few ulps of
	// magnitude ~now; pad with a large margin.
	return (1-p.alpha)*now - key + (1e-9 + 1e-12*(math.Abs(now)+math.Abs(key)))
}

func checkBounds(t *testing.T, p Policy, now float64) {
	t.Helper()
	bp := coreOf(p).(boundedPolicy)
	classes := bp.slotClasses()
	for ci := range classes {
		ents := classes[ci].entries()
		maxEval := math.Inf(-1)
		for _, he := range ents {
			slot, key := he.slot, he.key
			b := bp.bound(ci, key, now)
			e := bp.eval(slot, now)
			if e > b {
				t.Errorf("class %d slot %d at now=%v: eval %v exceeds bound %v (key %v)",
					ci, slot, now, e, b, key)
			}
			if e > maxEval {
				maxEval = e
			}
		}
		if math.IsInf(maxEval, -1) {
			continue
		}
		for _, he := range ents {
			slot, key := he.slot, he.key
			b := bp.bound(ci, key, now)
			e := bp.eval(slot, now)
			// Cutoff consistency: a slot whose bound reaches best must not
			// be pruned by the key cutoff (bound >= best ⟹ key <= cutoff).
			// The engine only ever passes eval scores as best, so probe at
			// achievable values: the slot's own eval (the self-tie case),
			// the strongest score any slot in the class can set (the
			// cross-slot tie case), and weaker bests below them.
			for _, best := range []float64{e, e - 1e-9, e - 1.0, maxEval, maxEval - 1e-9} {
				if b < best {
					continue
				}
				if cut := bp.cutoff(ci, now, best); key > cut {
					t.Errorf("class %d slot %d at now=%v: key %v exceeds cutoff %v for best %v (bound %v)",
						ci, slot, now, key, cut, best, b)
				}
			}
		}
	}
}

// TestSlotHeapInvariants stresses the heap's update/remove/rename plumbing
// directly against a brute-force model.
func TestSlotHeapInvariants(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	// The zero class is a heap.
	var h slotClass
	model := make(map[int32]float64) // slot -> key
	const slots = 64
	h.grow(slots)
	for step := 0; step < 20000; step++ {
		slot := int32(rnd.Intn(slots))
		switch rnd.Intn(4) {
		case 0, 1:
			key := float64(rnd.Intn(16)) // small key space forces ties
			h.update(slot, key)
			model[slot] = key
		case 2:
			h.remove(slot)
			delete(model, slot)
		default:
			// rename a random present slot onto a random absent slot
			to := int32(rnd.Intn(slots))
			if _, present := model[to]; present {
				continue
			}
			if _, present := model[slot]; !present {
				continue
			}
			h.rename(slot, to)
			model[to] = model[slot]
			delete(model, slot)
		}
		if len(h.ent) != len(model) {
			t.Fatalf("step %d: len %d, model %d", step, len(h.ent), len(model))
		}
		for i, e := range h.ent {
			if h.pos[e.slot] != int32(i) || model[e.slot] != e.key {
				t.Fatalf("step %d: entry %d = %+v, pos %d, model key %v", step, i, e, h.pos[e.slot], model[e.slot])
			}
		}
	}
	// Verify heap order by draining: root must always be the (key, slot)
	// minimum of the model.
	for len(model) > 0 {
		root := h.ent[0]
		for slot, key := range model {
			if key < root.key || (key == root.key && slot < root.slot) {
				t.Fatalf("root %d (key %v) is not the minimum: slot %d key %v", root.slot, root.key, slot, key)
			}
		}
		h.remove(root.slot)
		delete(model, root.slot)
	}
}

// bulkTrace replays, on several policies in lockstep, the eviction shape of
// the paper's Table-1 configuration: about bulkResidents residents, half of
// them accessed only once, and rounds in which a query hits a few residents,
// asks Victims(now, n), evicts the returned items in order and inserts as
// many new items at one timestamp (InsertBatch's pattern).
type bulkTrace struct {
	rnd  *rand.Rand
	ps   []Policy
	now  float64
	next int               // id of the next new item
	live []oodb.Item       // residents, for picking hits
	at   map[oodb.Item]int // resident -> index in live
}

const bulkResidents = 3200

// newBulkTrace fills every policy with bulkResidents items and re-accesses
// every other one, so half stay fresh.
func newBulkTrace(seed int64, ps ...Policy) *bulkTrace {
	b := &bulkTrace{rnd: rand.New(rand.NewSource(seed)), ps: ps, at: make(map[oodb.Item]int)}
	for b.next < bulkResidents {
		b.now += b.rnd.Float64()
		b.insert()
	}
	for i := 0; i < bulkResidents; i += 2 {
		b.now += b.rnd.Float64()
		for _, p := range ps {
			p.OnAccess(obj(i), b.now)
		}
	}
	return b
}

func (b *bulkTrace) insert() {
	it := obj(b.next)
	b.next++
	for _, p := range b.ps {
		p.OnInsert(it, b.now)
	}
	b.at[it] = len(b.live)
	b.live = append(b.live, it)
}

// victims advances time past a few hits and returns a copy of each
// policy's Victims(now, n).
func (b *bulkTrace) victims(n int) [][]oodb.Item {
	b.now += b.rnd.ExpFloat64() * 10
	for h := b.rnd.Intn(64); h > 0; h-- {
		b.now += b.rnd.Float64()
		it := b.live[b.rnd.Intn(len(b.live))]
		for _, p := range b.ps {
			p.OnAccess(it, b.now)
		}
	}
	out := make([][]oodb.Item, len(b.ps))
	for i, p := range b.ps {
		out[i] = append([]oodb.Item(nil), p.Victims(b.now, n)...)
	}
	return out
}

// replace evicts vs from every policy in order, then inserts as many new
// items at the current timestamp.
func (b *bulkTrace) replace(vs []oodb.Item) {
	for _, v := range vs {
		for _, p := range b.ps {
			p.Remove(v)
		}
		i, last := b.at[v], len(b.live)-1
		b.live[i] = b.live[last]
		b.at[b.live[i]] = i
		b.live = b.live[:last]
		delete(b.at, v)
	}
	for range vs {
		b.insert()
	}
}

// TestDifferentialBulkAtScale compares bulk Victims item for item with the
// reference twin at the paper configuration's shape, for request sizes from
// a single victim to a third of the cache.
func TestDifferentialBulkAtScale(t *testing.T) {
	sizes := []int{1, 8, 44, 128, 1024}
	for _, spec := range differentialSpecs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			factory, _ := Parse(spec)
			ref, _ := newReferencePolicy(spec)
			b := newBulkTrace(1, factory(), ref)
			for round := 0; round < 8*len(sizes); round++ {
				n := sizes[round%len(sizes)]
				vs := b.victims(n)
				if len(vs[0]) != len(vs[1]) {
					t.Fatalf("round %d: Victims(%d) returned %d items, reference %d", round, n, len(vs[0]), len(vs[1]))
				}
				for i := range vs[0] {
					if vs[0][i] != vs[1][i] {
						t.Fatalf("round %d (now=%v): Victims(%d)[%d] = %v, reference %v", round, b.now, n, i, vs[0][i], vs[1][i])
					}
				}
				b.replace(vs[0])
			}
		})
	}
}

// evalCounter wraps an indexed policy's hooks and counts eval calls: the
// slots a victim search scores.
type evalCounter[S any] struct {
	indexed[S]
	evals int
}

func (c *evalCounter[S]) eval(slot int32, now float64) float64 {
	c.evals++
	return c.indexed.eval(slot, now)
}

// countEvals wraps the hooks of p's core, an EWMA or LRD one, in an
// evalCounter and returns its count.
func countEvals(p Policy) *int {
	switch c := coreOf(p).(type) {
	case *ewmaPolicy:
		cnt := &evalCounter[ewmaState]{indexed: c.h}
		c.h = cnt
		return &cnt.evals
	case *lrd:
		cnt := &evalCounter[lrdState]{indexed: c.h}
		c.h = cnt
		return &cnt.evals
	}
	panic("countEvals: not an EWMA or LRD core")
}

// TestSearchVisitsNearN guards the search's cost at the paper
// configuration's shape: EWMA's Victims(now, 44) over about 3 200 residents
// must score few more slots than it returns. A search whose selection fills
// from whatever slots it meets first, not the lowest keys, scores about 5.5
// per requested victim here.
func TestSearchVisitsNearN(t *testing.T) {
	const n, rounds = 44, 300
	pol := NewEWMA(0.5)
	evals := countEvals(pol)
	b := newBulkTrace(1, pol)
	*evals = 0
	for round := 0; round < rounds; round++ {
		b.replace(b.victims(n)[0])
	}
	perVictim := float64(*evals) / (n * rounds)
	t.Logf("%d evaluations for %d victims: %.2f per victim", *evals, n*rounds, perVictim)
	if perVictim > 2.1 {
		t.Fatalf("search scored %.2f slots per requested victim, want <= 2.1", perVictim)
	}
}

// TestSlotRunInvariants stresses the arrival run's update/remove/rename
// plumbing directly against a brute-force model, with keys that mostly rise
// but sometimes fall below the tail.
func TestSlotRunInvariants(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	r := slotClass{order: byArrival}
	model := make(map[int32]float64) // slot -> key
	const slots = 64
	r.grow(slots)
	clock := 0.0
	for step := 0; step < 20000; step++ {
		slot := int32(rnd.Intn(slots))
		switch rnd.Intn(4) {
		case 0, 1:
			clock += float64(rnd.Intn(3)) - 0.4 // ties, rises and falls
			key := math.Round(clock)
			r.update(slot, key)
			model[slot] = key
		case 2:
			r.remove(slot)
			delete(model, slot)
		default:
			to := int32(rnd.Intn(slots))
			if _, present := model[to]; present {
				continue
			}
			if _, present := model[slot]; !present {
				continue
			}
			r.rename(slot, to)
			model[to] = model[slot]
			delete(model, slot)
		}
		dead := 0
		for i, e := range r.ent {
			if e.slot < 0 {
				dead++
				continue
			}
			if i < r.head {
				t.Fatalf("step %d: live entry %+v at %d before head %d", step, e, i, r.head)
			}
			if r.pos[e.slot] != int32(i) || model[e.slot] != e.key {
				t.Fatalf("step %d: entry %d = %+v, pos %d, model key %v", step, i, e, r.pos[e.slot], model[e.slot])
			}
			if i > r.head && e.key < r.ent[i-1].key {
				t.Fatalf("step %d: run out of order at %d: %v after %v", step, i, e.key, r.ent[i-1].key)
			}
		}
		if dead != r.dead || len(r.ent)-dead != len(model) {
			t.Fatalf("step %d: %d entries, %d dead (counted %d), model %d", step, len(r.ent), r.dead, dead, len(model))
		}
		if r.head < len(r.ent) && r.ent[r.head].slot < 0 {
			t.Fatalf("step %d: head %d is a tombstone", step, r.head)
		}
	}
}

// TestRunFootprint guards the arrival runs' memory under churn at the paper
// configuration's shape: tombstones are compacted before the array grows,
// so each run's backing array stays within twice the most entries it has
// held live, plus a small constant, however many appends and tombstones
// the churn makes. (Like a heap's, a run's capacity never shrinks.)
func TestRunFootprint(t *testing.T) {
	for _, spec := range []string{"lru", "fifo", "lru-2", "mean", "ewma-0.5"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			factory, _ := Parse(spec)
			p := factory()
			classes := coreOf(p).(interface{ slotClasses() []slotClass }).slotClasses()
			b := newBulkTrace(1, p)
			// The setup's fill puts every resident in each run class.
			peak := make([]int, len(classes))
			for ci := range peak {
				peak[ci] = bulkResidents
			}
			appends := 0
			for round := 0; round < 600; round++ {
				vs := b.victims(1 + round%64)[0]
				appends += len(vs)
				b.replace(vs)
				for ci := range classes {
					if classes[ci].order != byArrival {
						continue
					}
					r := &classes[ci]
					peak[ci] = max(peak[ci], len(r.ent)-r.dead)
					if cap(r.ent) > 2*peak[ci]+64 {
						t.Fatalf("round %d: class %d has held at most %d live entries, in an array of %d", round, ci, peak[ci], cap(r.ent))
					}
				}
			}
			t.Logf("%d inserts, runs within twice %d live entries", appends, bulkResidents)
		})
	}
}

// TestRunCompactsRarelyAtLimit holds an owner's full slot limit of
// residents in one arrival run (LRU: every resident is there) and touches
// them at random, each touch a tombstone plus an append. A run stopped
// exactly at the limit would compact on every append; with a quarter of
// the limit as tombstone room it compacts at most once per limit/4.
func TestRunCompactsRarelyAtLimit(t *testing.T) {
	const limit, touches = 80, 8000
	c := Slots(NewLRU(), new(Scratch), limit).(*recency)
	for i := 0; i < limit; i++ {
		c.Insert(oodb.ObjectItem(oodb.OID(i)), float64(i))
	}
	run := &c.classes[0]
	rnd := rand.New(rand.NewSource(1))
	compactions := 0
	for i := 0; i < touches; i++ {
		n := len(run.ent)
		c.Touch(int32(rnd.Intn(limit)), float64(limit+i))
		if len(run.ent) <= n { // an append grows it by one; a compaction does not
			compactions++
		}
	}
	if most := touches/(limit/4) + 1; compactions > most {
		t.Fatalf("%d compactions in %d touches of a full run, want at most %d", compactions, touches, most)
	}
	if cap(run.ent) > limit+limit/4 {
		t.Fatalf("cap(ent) = %d, past the limit of %d plus a quarter", cap(run.ent), limit)
	}
}

// TestEvaluationsPerEvictedVictim records what ranking exactly the victims
// an install evicts saves the search, on cores shaped like sim_paper's
// cache (about 3 080 attribute residents, 44 evictions an install) and
// sim_fleet's (77 residents, 49 evictions). Each round evicts k victims
// and inserts k new residents; one core is asked for k, the other for the
// count a cache used to ask for, k·(AttrSize+48)/AttrSize + 1 (48 being
// core.EntryOverhead). Both evict the same prefix, so the two stay in step.
// The trace is seeded, so each row's count is exact: most is the count
// measured with one walk per heap search, which the search must not exceed.
func TestEvaluationsPerEvictedVictim(t *testing.T) {
	for _, shape := range []struct {
		spec, name    string
		residents, k  int
		rounds, touch int
		most          int
	}{
		{"ewma-0.5", "sim_paper", 3080, 44, 300, 64, 22032},
		{"ewma-0.5", "sim_fleet", 77, 49, 3000, 8, 218522},
		{"lrd", "sim_paper", 3080, 44, 300, 64, 181658},
	} {
		row := shape.spec + " " + shape.name
		var evals [2]int
		var cnts [2]*int
		var ps [2]Policy
		factory, _ := Parse(shape.spec)
		for i := range ps {
			ps[i] = factory()
			cnts[i] = countEvals(ps[i])
		}
		rnd := rand.New(rand.NewSource(3))
		live, next, now := []oodb.Item{}, 0, 0.0
		insert := func() {
			it := obj(next)
			next++
			live = append(live, it)
			for _, p := range ps {
				p.OnInsert(it, now)
			}
		}
		for len(live) < shape.residents {
			now += rnd.Float64()
			insert()
		}
		legacy := shape.k*(oodb.AttrSize+48)/oodb.AttrSize + 1
		for round := 0; round < shape.rounds; round++ {
			for h := rnd.Intn(shape.touch); h > 0; h-- {
				now += rnd.Float64()
				it := live[rnd.Intn(len(live))]
				for _, p := range ps {
					p.OnAccess(it, now)
				}
			}
			now += rnd.ExpFloat64() * 10
			before := [2]int{*cnts[0], *cnts[1]}
			exact := append([]oodb.Item(nil), ps[0].Victims(now, shape.k)...)
			old := ps[1].Victims(now, legacy)[:shape.k]
			for i := range exact {
				if exact[i] != old[i] {
					t.Fatalf("%s round %d: victim %d is %v, the old request's %v", row, round, i, exact[i], old[i])
				}
			}
			for i := range evals {
				evals[i] += *cnts[i] - before[i]
			}
			for _, it := range exact {
				for _, p := range ps {
					p.Remove(it)
				}
				for j, x := range live {
					if x == it {
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
						break
					}
				}
			}
			for range exact {
				insert()
			}
		}
		evicted := float64(shape.k * shape.rounds)
		t.Logf("%s: %d evaluations, %.2f per evicted victim (the old request: %.2f)",
			row, evals[0], float64(evals[0])/evicted, float64(evals[1])/evicted)
		if evals[0] > evals[1] {
			t.Errorf("%s: exact requests evaluated %d slots, the old ones %d", row, evals[0], evals[1])
		}
		if evals[0] > shape.most {
			t.Errorf("%s: %d evaluations, more than the %d measured", row, evals[0], shape.most)
		}
	}
}
