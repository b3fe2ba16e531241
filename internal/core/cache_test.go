package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/oodb"
	"repro/internal/replacement"
)

func obj(i int) oodb.Item          { return oodb.ObjectItem(oodb.OID(i)) }
func attr(i int, a int) oodb.Item  { return oodb.AttrItem(oodb.OID(i), oodb.AttrID(a)) }
func fresh(now float64) Entry      { return NoExpiryEntry(0, now) }
func leased(until float64) Entry   { return Entry{ExpiresAt: until} }
func objCost() int                 { return ItemCost(oodb.ObjectItem(0)) }
func attrCost() int                { return ItemCost(oodb.AttrItem(0, 0)) }
func newObjCache(nObjs int) *Cache { return NewCache(nObjs*objCost(), replacement.NewLRU()) }

func TestGranularityStrings(t *testing.T) {
	want := map[Granularity]string{
		NoCache: "nc", AttributeCaching: "ac", ObjectCaching: "oc", HybridCaching: "hc",
	}
	for g, s := range want {
		if g.String() != s {
			t.Fatalf("%d.String() = %q, want %q", g, g.String(), s)
		}
		parsed, err := ParseGranularity(s)
		if err != nil || parsed != g {
			t.Fatalf("ParseGranularity(%q) = %v, %v", s, parsed, err)
		}
		if !g.Valid() {
			t.Fatalf("%v not Valid()", g)
		}
	}
	if _, err := ParseGranularity("xx"); err == nil {
		t.Fatal("ParseGranularity accepted junk")
	}
	if Granularity(9).Valid() {
		t.Fatal("Granularity(9) Valid()")
	}
	if len(Granularities()) != 4 {
		t.Fatal("Granularities() wrong length")
	}
}

func TestUsesAttributeItems(t *testing.T) {
	if NoCache.UsesAttributeItems() || ObjectCaching.UsesAttributeItems() {
		t.Fatal("NC/OC should use object items")
	}
	if !AttributeCaching.UsesAttributeItems() || !HybridCaching.UsesAttributeItems() {
		t.Fatal("AC/HC should use attribute items")
	}
}

func TestCoverItem(t *testing.T) {
	if it := CoverItem(ObjectCaching, 5, 3); it != obj(5) {
		t.Fatalf("OC cover = %v", it)
	}
	if it := CoverItem(AttributeCaching, 5, 3); it != attr(5, 3) {
		t.Fatalf("AC cover = %v", it)
	}
	if it := CoverItem(HybridCaching, 5, 3); it != attr(5, 3) {
		t.Fatalf("HC cover = %v", it)
	}
	if it := CoverItem(NoCache, 5, 3); it != obj(5) {
		t.Fatalf("NC cover = %v", it)
	}
}

func TestLookupStates(t *testing.T) {
	c := newObjCache(2)
	if _, st := c.Lookup(obj(1), 0); st != Miss {
		t.Fatalf("state = %v, want miss", st)
	}
	c.Insert(obj(1), leased(100), 0)
	if e, st := c.Lookup(obj(1), 50); st != Hit || e == nil {
		t.Fatalf("state = %v, want hit", st)
	}
	if _, st := c.Lookup(obj(1), 100); st != Stale {
		t.Fatalf("state at expiry = %v, want stale", st)
	}
	if _, st := c.Lookup(obj(1), 150); st != Stale {
		t.Fatalf("state past expiry = %v, want stale", st)
	}
}

func TestLookupStateString(t *testing.T) {
	if Miss.String() != "miss" || Stale.String() != "stale" || Hit.String() != "hit" {
		t.Fatal("LookupState strings")
	}
	if LookupState(9).String() == "" {
		t.Fatal("unknown state string empty")
	}
}

func TestInsertEvictsLRU(t *testing.T) {
	c := newObjCache(2)
	c.Insert(obj(1), fresh(0), 0)
	c.Insert(obj(2), fresh(1), 1)
	c.Lookup(obj(1), 2) // promote 1
	evicted := c.Insert(obj(3), fresh(3), 3)
	if len(evicted) != 1 || evicted[0] != obj(2) {
		t.Fatalf("evicted = %v, want [obj(2)]", evicted)
	}
	if c.Len() != 2 || c.Contains(obj(2)) {
		t.Fatal("resident set wrong after eviction")
	}
	if c.Evictions() != 1 || c.Insertions() != 3 {
		t.Fatalf("counters: ev=%d ins=%d", c.Evictions(), c.Insertions())
	}
}

func TestByteBudgetMixedSizes(t *testing.T) {
	// A budget of 6 attribute entries fits exactly 6 before evicting.
	c := NewCache(6*attrCost(), replacement.NewLRU())
	for i := 0; i < 6; i++ {
		if ev := c.Insert(attr(i, 0), fresh(float64(i)), float64(i)); len(ev) > 0 {
			t.Fatalf("unexpected eviction at %d: %v", i, ev)
		}
	}
	if ev := c.Insert(attr(6, 0), fresh(6), 6); len(ev) != 1 {
		t.Fatalf("7th insert evicted %v, want one victim", ev)
	}
	if c.UsedBytes() > c.CapacityBytes() {
		t.Fatal("over budget")
	}
}

func TestAttrItemsPackTighter(t *testing.T) {
	budget := 2 * objCost()
	co := NewCache(budget, replacement.NewLRU())
	ca := NewCache(budget, replacement.NewLRU())
	now := 0.0
	for i := 0; ; i++ {
		if ev := co.Insert(obj(i), fresh(now), now); len(ev) > 0 {
			break
		}
		now++
	}
	objCount := co.Len()
	for i := 0; ; i++ {
		if ev := ca.Insert(attr(i, 0), fresh(now), now); len(ev) > 0 {
			break
		}
		now++
	}
	attrCount := ca.Len()
	if attrCount <= 5*objCount {
		t.Fatalf("attribute items should pack much tighter: %d vs %d", attrCount, objCount)
	}
}

func TestRefreshUpdatesInPlace(t *testing.T) {
	c := newObjCache(2)
	c.Insert(obj(1), Entry{Version: 1, ExpiresAt: 10}, 0)
	ins := c.Insertions()
	c.Insert(obj(1), Entry{Version: 5, ExpiresAt: 99}, 5)
	if c.Insertions() != ins {
		t.Fatal("refresh counted as insertion")
	}
	e, _ := c.Peek(obj(1))
	if e.Version != 5 || e.ExpiresAt != 99 {
		t.Fatalf("entry not refreshed: %+v", e)
	}
	if c.Len() != 1 {
		t.Fatal("refresh duplicated entry")
	}
}

func TestOversizeItemRejected(t *testing.T) {
	c := NewCache(attrCost(), replacement.NewLRU())
	c.Insert(attr(1, 0), fresh(0), 0)
	if ev := c.Insert(obj(2), fresh(1), 1); len(ev) != 0 {
		t.Fatalf("oversize insert evicted %v", ev)
	}
	if c.Contains(obj(2)) {
		t.Fatal("oversize item cached")
	}
	if !c.Contains(attr(1, 0)) {
		t.Fatal("resident item lost on rejected insert")
	}
}

func TestRemove(t *testing.T) {
	c := newObjCache(2)
	c.Insert(obj(1), fresh(0), 0)
	used := c.UsedBytes()
	if !c.Remove(obj(1)) {
		t.Fatal("Remove resident returned false")
	}
	if c.Remove(obj(1)) {
		t.Fatal("Remove absent returned true")
	}
	if c.UsedBytes() != used-objCost() {
		t.Fatal("bytes not released")
	}
}

func TestValidFraction(t *testing.T) {
	c := newObjCache(4)
	if c.ValidFraction(0) != 0 {
		t.Fatal("empty cache ValidFraction != 0")
	}
	c.Insert(obj(1), leased(10), 0)
	c.Insert(obj(2), leased(100), 0)
	if f := c.ValidFraction(50); f != 0.5 {
		t.Fatalf("ValidFraction = %v, want 0.5", f)
	}
}

func TestEntryValidAt(t *testing.T) {
	e := leased(10)
	if !e.ValidAt(9.99) || e.ValidAt(10) || e.ValidAt(11) {
		t.Fatal("ValidAt boundary wrong")
	}
	if ne := NoExpiryEntry(3, 1); !ne.ValidAt(1e300) || ne.Version != 3 || ne.FetchedAt != 1 {
		t.Fatal("NoExpiryEntry wrong")
	}
}

func TestNewCacheValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("zero capacity did not panic")
			}
		}()
		NewCache(0, replacement.NewLRU())
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nil policy did not panic")
			}
		}()
		NewCache(100, nil)
	}()
}

func TestPolicyName(t *testing.T) {
	c := NewCache(100, replacement.NewEWMA(0.5))
	if got := c.policy.Name(); got != "ewma-0.5" {
		t.Fatalf("policy name = %q", got)
	}
}

// Property: under arbitrary insert/lookup/remove streams with any policy,
// the cache never exceeds its byte budget, Len matches residency, and the
// policy tracks exactly the resident items.
func TestQuickCacheInvariants(t *testing.T) {
	for _, spec := range []string{"lru", "ewma-0.5", "mean", "lru-2", "fifo"} {
		factory, err := replacement.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		f := func(ops []uint16) bool {
			policy := factory()
			c := NewCache(5*objCost(), policy)
			resident := map[oodb.Item]bool{}
			now := 0.0
			for _, op := range ops {
				now += 1
				var it oodb.Item
				if op%2 == 0 {
					it = obj(int(op) % 7)
				} else {
					it = attr(int(op)%7, int(op/2)%9)
				}
				switch (op / 16) % 3 {
				case 0:
					evicted := c.Insert(it, leased(now+float64(op%50)), now)
					resident[it] = true
					for _, v := range evicted {
						delete(resident, v)
					}
				case 1:
					_, st := c.Lookup(it, now)
					if (st != Miss) != resident[it] {
						return false
					}
				case 2:
					if c.Remove(it) != resident[it] {
						return false
					}
					delete(resident, it)
				}
				if c.UsedBytes() > c.CapacityBytes() {
					return false
				}
				if c.Len() != len(resident) || policy.Len() != len(resident) {
					return false
				}
				bytes := 0
				for it := range resident {
					if !c.Contains(it) {
						return false
					}
					bytes += ItemCost(it)
				}
				if bytes != c.UsedBytes() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", factory().Name(), err)
		}
	}
}

// Property: the eviction victim is never the item just inserted unless the
// budget forces it (single-slot cache).
func TestQuickInsertedItemResident(t *testing.T) {
	f := func(ops []uint8) bool {
		c := NewCache(3*objCost(), replacement.NewLRU())
		now := 0.0
		for _, op := range ops {
			now++
			it := obj(int(op) % 10)
			c.Insert(it, fresh(now), now)
			if !c.Contains(it) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBatchBasic(t *testing.T) {
	c := newObjCache(3)
	batch := []BatchEntry{
		{Item: obj(1), Entry: leased(100)},
		{Item: obj(2), Entry: leased(200)},
	}
	if ev := c.InsertBatch(batch, 0); len(ev) != 0 {
		t.Fatalf("unexpected evictions %v", ev)
	}
	if c.Len() != 2 || !c.Contains(obj(1)) || !c.Contains(obj(2)) {
		t.Fatal("batch not cached")
	}
	if e, _ := c.Peek(obj(2)); e.ExpiresAt != 200 {
		t.Fatal("entry metadata lost")
	}
}

func TestInsertBatchEvictsForWholeBatch(t *testing.T) {
	c := newObjCache(3)
	c.Insert(obj(1), fresh(0), 0)
	c.Insert(obj(2), fresh(1), 1)
	c.Insert(obj(3), fresh(2), 2)
	// Batch of 2 into a full 3-slot cache: evict the 2 oldest.
	ev := c.InsertBatch([]BatchEntry{
		{Item: obj(4), Entry: fresh(10)},
		{Item: obj(5), Entry: fresh(10)},
	}, 10)
	if len(ev) != 2 || ev[0] != obj(1) || ev[1] != obj(2) {
		t.Fatalf("evicted %v, want [obj(1) obj(2)]", ev)
	}
	if c.UsedBytes() > c.CapacityBytes() || c.Len() != 3 {
		t.Fatalf("len=%d used=%d", c.Len(), c.UsedBytes())
	}
}

func TestInsertBatchDuplicatesAndResidents(t *testing.T) {
	c := newObjCache(4)
	c.Insert(obj(1), Entry{Version: 1, ExpiresAt: 10}, 0)
	ev := c.InsertBatch([]BatchEntry{
		{Item: obj(1), Entry: Entry{Version: 2, ExpiresAt: 99}}, // resident: refresh
		{Item: obj(2), Entry: fresh(1)},
		{Item: obj(2), Entry: fresh(1)}, // duplicate within batch
	}, 1)
	if len(ev) != 0 {
		t.Fatalf("unexpected evictions %v", ev)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if e, _ := c.Peek(obj(1)); e.Version != 2 || e.ExpiresAt != 99 {
		t.Fatal("resident entry not refreshed by batch")
	}
}

func TestInsertBatchOversizeSkipped(t *testing.T) {
	c := NewCache(attrCost(), replacement.NewLRU())
	ev := c.InsertBatch([]BatchEntry{
		{Item: obj(1), Entry: fresh(0)},     // larger than the cache
		{Item: attr(2, 0), Entry: fresh(0)}, // fits
	}, 0)
	if len(ev) != 0 {
		t.Fatalf("evictions %v", ev)
	}
	if c.Contains(obj(1)) || !c.Contains(attr(2, 0)) {
		t.Fatal("oversize handling wrong in batch")
	}
}

func TestForEach(t *testing.T) {
	c := newObjCache(4)
	c.Insert(obj(1), leased(10), 0)
	c.Insert(obj(2), leased(20), 0)
	seen := map[oodb.Item]float64{}
	c.ForEach(func(it oodb.Item, e *Entry) bool {
		seen[it] = e.ExpiresAt
		return true
	})
	if len(seen) != 2 || seen[obj(1)] != 10 || seen[obj(2)] != 20 {
		t.Fatalf("ForEach saw %v", seen)
	}
	// Early stop.
	visits := 0
	c.ForEach(func(oodb.Item, *Entry) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("ForEach ignored stop: %d visits", visits)
	}
}

// Property: InsertBatch and sequential Inserts reach the same resident-set
// size and byte usage for identical inputs (the victim *sets* may differ in
// edge cases, but accounting must agree).
func TestQuickInsertBatchAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		a := NewCache(6*objCost(), replacement.NewLRU())
		b := NewCache(6*objCost(), replacement.NewLRU())
		now := 0.0
		var batch []BatchEntry
		for _, op := range ops {
			now++
			it := obj(int(op) % 10)
			batch = append(batch, BatchEntry{Item: it, Entry: fresh(now)})
			a.Insert(it, fresh(now), now)
		}
		b.InsertBatch(batch, now)
		if b.UsedBytes() > b.CapacityBytes() {
			return false
		}
		return a.Len() == b.Len() && a.UsedBytes() == b.UsedBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheSteadyStateAllocs: probing the cache, and installing replies into
// a cache that is already full, allocate nothing once the scratch has grown.
func TestCacheSteadyStateAllocs(t *testing.T) {
	const residents = 400
	c := NewCache(residents*attrCost(), replacement.NewEWMA(0.5))
	next := 0
	newItem := func() oodb.Item {
		next++
		return attr(next/oodb.NumAttrs, next%oodb.NumAttrs)
	}
	now := 0.0
	batch := make([]BatchEntry, oodb.NumAttrs)
	install := func() {
		now++
		for i := range batch {
			batch[i] = BatchEntry{Item: newItem(), Entry: fresh(now)}
		}
		c.InsertBatch(batch, now)
	}
	for i := 0; i < 3*residents/len(batch); i++ {
		install() // fill, then churn until every slice has reached its size
	}
	if c.Len() != residents {
		t.Fatalf("Len = %d, want a full cache of %d", c.Len(), residents)
	}
	if allocs := testing.AllocsPerRun(200, install); allocs != 0 {
		t.Errorf("InsertBatch into a full cache allocates %v times", allocs)
	}
	hit, miss := batch[0].Item, attr(1<<20, 0)
	if allocs := testing.AllocsPerRun(200, func() {
		now++
		if _, st := c.Lookup(hit, now); st != Hit {
			t.Fatalf("Lookup(%v) = %v", hit, st)
		}
		if _, st := c.Lookup(miss, now); st != Miss {
			t.Fatalf("Lookup(%v) = %v", miss, st)
		}
	}); allocs != 0 {
		t.Errorf("Lookup allocates %v times", allocs)
	}
}

// BenchmarkCacheInsertBatch is one reply's worth of new attribute items
// (one op = one 12-item batch) installed into a full ewma-0.5 cache of 400
// objects (the paper's client) and of 10 (a thin fleet client): bulk victim
// selection, eviction and insertion, the simulator's dominant step.
func BenchmarkCacheInsertBatch(b *testing.B) {
	for _, objects := range []int{400, 10} {
		b.Run(fmt.Sprint(objects), func(b *testing.B) {
			c := NewCache(objects*objCost(), replacement.NewEWMA(0.5))
			next, now := 0, 0.0
			batch := make([]BatchEntry, oodb.NumAttrs)
			install := func() {
				now++
				for i := range batch {
					batch[i] = BatchEntry{Item: attr(next/oodb.NumAttrs, next%oodb.NumAttrs), Entry: fresh(now)}
					next++
				}
				c.InsertBatch(batch, now)
			}
			for c.Evictions() == 0 {
				install()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				install()
			}
		})
	}
}
