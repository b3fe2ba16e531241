package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/oodb"
	"repro/internal/replacement"
)

// scratchPolicies are the policies the scratch tests run under: both
// indexed class orders (ewma-0.5 has a heap and a run, lru a run, lru-3 a
// run and a heap) and the two cores that search without the engine.
var scratchPolicies = []string{"ewma-0.5", "lru", "lru-3", "clock", "random:7"}

// hierarchyState is everything a hierarchy holds, in slot order: the
// storage cache's residents and counters, and the memory buffer's copy of
// every item of the universe.
type hierarchyState struct {
	items                 []oodb.Item
	slots                 []Entry
	used                  int
	insertions, evictions uint64
	mem                   []Entry
	inMem                 []bool
}

// diff names the first difference between two states, or returns "".
func (a hierarchyState) diff(b hierarchyState) string {
	if i, same := firstDiff(a.items, b.items); !same {
		return fmt.Sprintf("resident %d of %d/%d", i, len(a.items), len(b.items))
	}
	if i, same := firstDiff(a.slots, b.slots); !same {
		return fmt.Sprintf("entry of resident %v", a.items[i])
	}
	if a.used != b.used || a.insertions != b.insertions || a.evictions != b.evictions {
		return fmt.Sprintf("counters (%d, %d, %d) vs (%d, %d, %d)", a.used, a.insertions, a.evictions, b.used, b.insertions, b.evictions)
	}
	if i, same := firstDiff(a.mem, b.mem); !same {
		return fmt.Sprintf("memory-buffer entry %d", i)
	}
	if i, same := firstDiff(a.inMem, b.inMem); !same {
		return fmt.Sprintf("memory-buffer residency %d", i)
	}
	return ""
}

// firstDiff returns the first index at which a and b differ, and whether
// they are equal.
func firstDiff[T comparable](a, b []T) (int, bool) {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i, false
		}
	}
	return min(len(a), len(b)), len(a) == len(b)
}

func stateOf(h *Hierarchy, universe []oodb.Item) hierarchyState {
	st := hierarchyState{
		items:      slices.Clone(h.store.items),
		slots:      slices.Clone(h.store.slots),
		used:       h.store.UsedBytes(),
		insertions: h.store.Insertions(),
		evictions:  h.store.Evictions(),
	}
	for _, it := range universe {
		e, ok := h.mem.Peek(it)
		st.mem = append(st.mem, e)
		st.inMem = append(st.inMem, ok)
	}
	return st
}

// TestSharedScratchInvisible drives K hierarchies that share one Scratch
// and K that each have their own through one seeded, interleaved tape of
// staged installs, puts, probes, removals and lease voids, and requires
// the two fleets to agree after every step: what each probe returns, and
// every hierarchy's residents in slot order (so the same items evicted, in
// the same order), counters and memory buffer. A result read from the
// shared scratch after another hierarchy's install overwrote it — a
// Victims slice kept across calls, a staged batch left behind — shows up as
// a difference.
func TestSharedScratchInvisible(t *testing.T) {
	const k, objects, storageObjects, memObjects, steps = 4, 30, 8, 3, 2500
	var universe []oodb.Item
	for o := 0; o < objects; o++ {
		universe = append(universe, obj(o))
		for a := 0; a < oodb.NumAttrs; a++ {
			universe = append(universe, attr(o, a))
		}
	}
	for _, spec := range scratchPolicies {
		t.Run(spec, func(t *testing.T) {
			sharedPolicies, _ := replacement.Parse(spec)
			privatePolicies, _ := replacement.Parse(spec)
			shared, private := make([]*Hierarchy, k), make([]*Hierarchy, k)
			cell := new(Scratch)
			for i := range shared {
				shared[i] = NewHierarchy(HybridCaching, storageObjects*objCost(), sharedPolicies(), memObjects, cell)
				private[i] = NewHierarchy(HybridCaching, storageObjects*objCost(), privatePolicies(), memObjects, new(Scratch))
			}
			rnd := rand.New(rand.NewSource(49))
			item := func() oodb.Item {
				if rnd.Intn(8) == 0 {
					return obj(rnd.Intn(objects))
				}
				return attr(rnd.Intn(objects), rnd.Intn(oodb.NumAttrs))
			}
			entry := func(now float64) Entry {
				return Entry{Version: rnd.Uint64() % 8, ExpiresAt: now + float64(rnd.Intn(40)), FetchedAt: now}
			}
			for step := 0; step < steps; step++ {
				now := float64(step)
				i := rnd.Intn(k)
				a, b := shared[i], private[i]
				switch op := rnd.Intn(12); {
				case op < 4:
					for n := 1 + rnd.Intn(2*oodb.NumAttrs); n > 0; n-- {
						it, e, storageOnly := item(), entry(now), rnd.Intn(3) == 0
						a.Stage(it, e, storageOnly)
						b.Stage(it, e, storageOnly)
					}
					a.Commit(now)
					b.Commit(now)
				case op < 7:
					it := item()
					ae, as, al := a.Probe(it, now)
					be, bs, bl := b.Probe(it, now)
					if ae != be || as != bs || al != bl {
						t.Fatalf("step %d: hierarchy %d Probe(%v) = (%+v, %v, %v) shared, (%+v, %v, %v) private", step, i, it, ae, as, al, be, bs, bl)
					}
				case op < 10:
					it, e := item(), entry(now)
					a.Put(it, e, now)
					b.Put(it, e, now)
				case op < 11:
					it := item()
					if ar, br := a.Remove(it), b.Remove(it); ar != br {
						t.Fatalf("step %d: hierarchy %d Remove(%v) = %v shared, %v private", step, i, it, ar, br)
					}
				default:
					a.VoidLeases(now)
					b.VoidLeases(now)
				}
				if d := stateOf(a, universe).diff(stateOf(b, universe)); d != "" {
					t.Fatalf("step %d: hierarchy %d: shared and private scratch differ in its %s", step, i, d)
				}
			}
			evictions := uint64(0)
			for i := range shared {
				if d := stateOf(shared[i], universe).diff(stateOf(private[i], universe)); d != "" {
					t.Fatalf("end: hierarchy %d: shared and private scratch differ in its %s", i, d)
				}
				evictions += shared[i].store.Evictions()
			}
			if evictions == 0 {
				t.Fatal("the tape never evicted: nothing was searched for victims")
			}
		})
	}
}

// slotCoreCaps returns the capacity of every per-slot array of the slot
// core behind c — its states, and each class's pos and ent, a heap's and
// an arrival run's apart — read by reflection, as they are the replacement
// package's own fields.
func slotCoreCaps(c *Cache) map[string]int {
	caps := map[string]int{}
	core := reflect.ValueOf(c.policy).Elem()
	if f := core.FieldByName("states"); f.IsValid() {
		caps["states"] = f.Cap()
	}
	if f := core.FieldByName("classes"); f.IsValid() {
		for i := 0; i < f.Len(); i++ {
			class := f.Index(i)
			ent := "heap ent"
			if class.FieldByName("order").Bool() {
				ent = "run ent"
			}
			caps["pos"] = max(caps["pos"], class.FieldByName("pos").Cap())
			caps[ent] = max(caps[ent], class.FieldByName("ent").Cap())
		}
	}
	return caps
}

// TestGrowthStopsAtLimit churns full caches of attribute items (AC),
// whole objects (OC) and a mix (HC) and requires every per-slot array —
// the cache's items and slots, its slot core's states and class arrays —
// to have room for no more than the most residents the budget admits,
// however the residents come and go; an arrival run, whose tombstones
// need room, for a quarter more. A warm install then allocates nothing.
func TestGrowthStopsAtLimit(t *testing.T) {
	const objects = 10 // the thin fleet client's cache
	for _, g := range []Granularity{AttributeCaching, HybridCaching, ObjectCaching} {
		for _, spec := range scratchPolicies {
			t.Run(g.String()+"/"+spec, func(t *testing.T) {
				factory, _ := replacement.Parse(spec)
				c := NewCache(objects*objCost(), factory())
				limit := objects * objCost() / attrCost()
				if c.maxSlots != limit {
					t.Fatalf("maxSlots = %d, want %d", c.maxSlots, limit)
				}
				rnd := rand.New(rand.NewSource(7))
				item := func() oodb.Item {
					o := rnd.Intn(4 * objects)
					if g == ObjectCaching || (g == HybridCaching && rnd.Intn(4) == 0) {
						return obj(o)
					}
					return attr(o, rnd.Intn(oodb.NumAttrs))
				}
				batch := make([]BatchEntry, 0, 2*oodb.NumAttrs)
				now, peak := 0.0, 0
				install := func() {
					now++
					batch = batch[:0]
					for n := 1 + rnd.Intn(2*oodb.NumAttrs); n > 0; n-- {
						batch = append(batch, BatchEntry{Item: item(), Entry: fresh(now)})
					}
					c.InsertBatch(batch, now)
				}
				for step := 0; step < 3000; step++ {
					switch op := rnd.Intn(8); {
					case op < 4:
						install()
					case op < 6:
						now++
						c.Insert(item(), fresh(now), now)
					case op < 7:
						c.Lookup(item(), now)
					default:
						c.Remove(item())
					}
					peak = max(peak, c.Len())
				}
				if g == AttributeCaching && peak != limit {
					t.Fatalf("an attribute cache held at most %d items, its limit is %d", peak, limit)
				}
				caps := slotCoreCaps(c)
				caps["items"], caps["slots"] = cap(c.items), cap(c.slots)
				for name, n := range caps {
					if bound := limit + limit/4; n > limit && (name != "run ent" || n > bound) {
						t.Errorf("cap(%s) = %d, past the limit of %d residents", name, n, limit)
					}
				}
				if allocs := testing.AllocsPerRun(100, install); allocs != 0 {
					t.Errorf("a warm install allocates %v times", allocs)
				}
			})
		}
	}
}
