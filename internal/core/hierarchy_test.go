package core

import (
	"math/rand"
	"testing"

	"repro/internal/oodb"
	"repro/internal/replacement"
)

// hierarchyModel is the oracle for TestHierarchyAgainstMaps: the two levels
// as plain maps, the memory buffer's recency as a slice (most recent first).
// Its storage level never evicts; the test sizes the real one to match.
type hierarchyModel struct {
	store  map[oodb.Item]Entry // nil: no storage level (NC)
	mem    map[oodb.Item]Entry
	recent []oodb.Item
	memCap int
}

func (m *hierarchyModel) touch(it oodb.Item) {
	for i, x := range m.recent {
		if x == it {
			copy(m.recent[1:i+1], m.recent[:i])
			m.recent[0] = it
			return
		}
	}
	m.recent = append([]oodb.Item{it}, m.recent...)
	if len(m.recent) > m.memCap {
		delete(m.mem, m.recent[m.memCap])
		m.recent = m.recent[:m.memCap]
	}
}

func (m *hierarchyModel) putMem(it oodb.Item, e Entry) {
	m.mem[it] = e
	m.touch(it)
}

func (m *hierarchyModel) dropMem(it oodb.Item) {
	delete(m.mem, it)
	for i, x := range m.recent {
		if x == it {
			m.recent = append(m.recent[:i], m.recent[i+1:]...)
			return
		}
	}
}

func (m *hierarchyModel) probe(it oodb.Item, now float64) (Entry, LookupState, bool) {
	state := func(e Entry) LookupState {
		if now < e.ExpiresAt {
			return Hit
		}
		return Stale
	}
	if e, ok := m.store[it]; ok {
		if _, inMem := m.mem[it]; inMem {
			m.touch(it)
			return e, state(e), false
		}
		m.putMem(it, e)
		return e, state(e), true
	}
	if e, ok := m.mem[it]; ok {
		m.touch(it)
		return e, state(e), false
	}
	return Entry{}, Miss, false
}

func (m *hierarchyModel) peek(it oodb.Item) (Entry, bool) {
	if e, ok := m.store[it]; ok {
		return e, true
	}
	e, ok := m.mem[it]
	return e, ok
}

// TestHierarchyAgainstMaps drives random probes, staged installs, puts, refreshes
// and removals through a Hierarchy and the map model and requires the same
// classification, entry, promotion and residency after every step —
// with a storage level (OC) and without one (NC).
func TestHierarchyAgainstMaps(t *testing.T) {
	const universe, memCap = 24, 5
	for _, g := range []Granularity{ObjectCaching, NoCache} {
		t.Run(g.String(), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(3))
			var policy replacement.Policy
			model := &hierarchyModel{mem: map[oodb.Item]Entry{}, memCap: memCap}
			if g != NoCache {
				policy = replacement.NewLRU()
				model.store = map[oodb.Item]Entry{}
			}
			h := NewHierarchy(g, universe*objCost(), policy, memCap, new(Scratch))
			if (h.Storage() == nil) != (g == NoCache) {
				t.Fatalf("Storage() nil = %v under %v", h.Storage() == nil, g)
			}
			entry := func(now float64) Entry {
				return Entry{Version: rnd.Uint64() % 8, ExpiresAt: now + float64(rnd.Intn(6)), FetchedAt: now}
			}
			for step := 0; step < 4000; step++ {
				now := float64(step)
				it := obj(rnd.Intn(universe))
				switch op := rnd.Intn(10); {
				case op < 5:
					ge, gs, gl := h.Probe(it, now)
					we, ws, wl := model.probe(it, now)
					if ge != we || gs != ws || gl != wl {
						t.Fatalf("step %d: Probe(%v) = (%+v, %v, %v), model (%+v, %v, %v)", step, it, ge, gs, gl, we, ws, wl)
					}
				case op < 7:
					for n := 1 + rnd.Intn(4); n > 0; n-- {
						bi, be, storageOnly := obj(rnd.Intn(universe)), entry(now), rnd.Intn(3) == 0
						h.Stage(bi, be, storageOnly)
						if !storageOnly {
							model.putMem(bi, be)
						}
						if model.store != nil {
							model.store[bi] = be
						}
					}
					h.Commit(now)
				case op == 7:
					e := entry(now)
					h.Put(it, e, now)
					model.putMem(it, e)
					if model.store != nil {
						model.store[it] = e
					}
				case op == 8:
					e := entry(now)
					_, held := model.peek(it)
					if got := h.Refresh(it, e); got != held {
						t.Fatalf("step %d: Refresh(%v) = %v, model holds it: %v", step, it, got, held)
					}
					if _, ok := model.store[it]; ok {
						model.store[it] = e
					}
					if _, ok := model.mem[it]; ok {
						model.putMem(it, e)
					}
				default:
					_, held := model.peek(it)
					if got := h.Remove(it); got != held {
						t.Fatalf("step %d: Remove(%v) = %v, model held it: %v", step, it, got, held)
					}
					delete(model.store, it)
					model.dropMem(it)
				}
				for i := 0; i < universe; i++ {
					ge, gok := h.Peek(obj(i))
					we, wok := model.peek(obj(i))
					if gok != wok || ge != we {
						t.Fatalf("step %d: Peek(%v) = (%+v, %v), model (%+v, %v)", step, obj(i), ge, gok, we, wok)
					}
				}
			}
		})
	}
}

// install stages the consumed entries in order and commits them at now.
func install(h *Hierarchy, now float64, batch ...BatchEntry) {
	for _, b := range batch {
		h.Stage(b.Item, b.Entry, false)
	}
	h.Commit(now)
}

func TestHierarchyMemoryOnlySurvivor(t *testing.T) {
	h := NewHierarchy(ObjectCaching, 2*objCost(), replacement.NewLRU(), 4, new(Scratch))
	install(h, 0,
		BatchEntry{Item: obj(1), Entry: leased(100)},
		BatchEntry{Item: obj(2), Entry: leased(100)},
		BatchEntry{Item: obj(3), Entry: leased(5)})
	if h.Storage().Contains(obj(1)) || h.Storage().Len() != 2 {
		t.Fatalf("storage of two objects holds obj(1) or %d items", h.Storage().Len())
	}
	// The copy evicted from storage is served from the buffer alone.
	if e, st, fromStorage := h.Probe(obj(1), 10); st != Hit || fromStorage || e.ExpiresAt != 100 {
		t.Fatalf("survivor probe = (%+v, %v, from storage %v), want a memory hit", e, st, fromStorage)
	}
	if _, st, fromStorage := h.Probe(obj(3), 10); st != Stale || fromStorage {
		t.Fatalf("expired copy probe = (%v, from storage %v), want stale from memory", st, fromStorage)
	}
	// A prefetched item never entered the buffer: the first probe finds it
	// in storage and promotes it, the second finds the promoted copy.
	h.Stage(obj(4), leased(100), true)
	h.Commit(11)
	if _, st, fromStorage := h.Probe(obj(4), 12); st != Hit || !fromStorage {
		t.Fatalf("prefetched probe = (%v, from storage %v), want a storage hit", st, fromStorage)
	}
	if _, st, fromStorage := h.Probe(obj(4), 13); st != Hit || fromStorage {
		t.Fatalf("promoted probe = (%v, from storage %v), want a memory hit", st, fromStorage)
	}
}

func TestHierarchyMemorySizedByGranularity(t *testing.T) {
	// One storage slot, so every other copy lives in the buffer alone.
	survivors := func(g Granularity, n int) int {
		h := NewHierarchy(g, ItemCost(CoverItem(g, 0, 0)), replacement.NewLRU(), 2, new(Scratch))
		kept := 0
		for i := 0; i < n; i++ {
			h.Put(CoverItem(g, oodb.OID(i), 0), fresh(0), 0)
		}
		for i := 0; i < n; i++ {
			if _, ok := h.Peek(CoverItem(g, oodb.OID(i), 0)); ok {
				kept++
			}
		}
		return kept
	}
	if n := survivors(ObjectCaching, 50); n != 2 {
		t.Fatalf("a 2-object buffer kept %d objects", n)
	}
	if n, want := survivors(AttributeCaching, 50), 2*oodb.ObjectSize/oodb.AttrSize; n != want {
		t.Fatalf("a 2-object buffer kept %d attributes, want %d", n, want)
	}
}

func TestHierarchyVoidLeasesKeepsBytes(t *testing.T) {
	h := NewHierarchy(ObjectCaching, 4*objCost(), replacement.NewLRU(), 4, new(Scratch))
	install(h, 0,
		BatchEntry{Item: obj(1), Entry: leased(100)},
		BatchEntry{Item: obj(2), Entry: leased(3)})
	used := h.Storage().UsedBytes()
	h.VoidLeases(10)
	if h.Storage().UsedBytes() != used || h.Storage().Len() != 2 {
		t.Fatal("voiding leases dropped storage bytes")
	}
	// Buffer dropped, so both come back from storage, expired; a lease that
	// had already run out keeps its own expiry.
	for i, wantExpiry := range map[int]float64{1: 10, 2: 3} {
		e, st, fromStorage := h.Probe(obj(i), 10)
		if st != Stale || !fromStorage || e.ExpiresAt != wantExpiry {
			t.Fatalf("obj(%d) after VoidLeases = (%+v, %v, from storage %v), want stale from storage expiring at %v", i, e, st, fromStorage, wantExpiry)
		}
	}
}

func TestHierarchyRemove(t *testing.T) {
	// obj(1) is evicted from the two-slot storage and survives in the
	// buffer alone, obj(3) is held by both levels, and the prefetched
	// obj(4) by storage alone. Remove finds each wherever it is, and a
	// second Remove, like one of an item never cached, finds nothing and
	// leaves the rest in place.
	h := NewHierarchy(ObjectCaching, 2*objCost(), replacement.NewLRU(), 4, new(Scratch))
	install(h, 0,
		BatchEntry{Item: obj(1), Entry: leased(100)},
		BatchEntry{Item: obj(2), Entry: leased(100)},
		BatchEntry{Item: obj(3), Entry: leased(100)})
	h.Stage(obj(4), leased(100), true)
	h.Commit(1)
	for _, i := range []int{1, 3, 4} {
		if !h.Remove(obj(i)) {
			t.Fatalf("Remove(obj(%d)) found no copy", i)
		}
		if _, ok := h.Peek(obj(i)); ok {
			t.Fatalf("obj(%d) still cached after Remove", i)
		}
		if h.Remove(obj(i)) {
			t.Fatalf("second Remove(obj(%d)) found a copy", i)
		}
	}
	if h.Remove(obj(9)) {
		t.Fatal("Remove of an item never cached found a copy")
	}
	if _, ok := h.Peek(obj(2)); !ok || h.Storage().Len() != 0 {
		t.Fatalf("after the removals: obj(2) cached = %v, storage holds %d items, want obj(2) in the buffer alone", ok, h.Storage().Len())
	}
}
