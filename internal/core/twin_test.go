package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/oodb"
	"repro/internal/replacement"
)

// mapCache is the Cache as it stood before residents moved into flat slices
// under an oodb.ItemIndex: a Go map of heap-allocated entries and a fresh
// evicted slice per call, driving its policy by item through the
// item-keyed replacement.Policy where the Cache drives the slot core. It is
// the behavioural oracle of TestCacheMatchesMapTwin and FuzzCacheTwin, so
// its bodies stay as they were.
type mapCache struct {
	capacityBytes int
	usedBytes     int
	entries       map[oodb.Item]*Entry
	policy        replacement.Policy

	insertions uint64
	evictions  uint64
	rejected   uint64
}

func newMapCache(capacityBytes int, policy replacement.Policy) *mapCache {
	return &mapCache{capacityBytes: capacityBytes, entries: make(map[oodb.Item]*Entry), policy: policy}
}

func (c *mapCache) Lookup(it oodb.Item, now float64) (*Entry, LookupState) {
	e, ok := c.entries[it]
	if !ok {
		return nil, Miss
	}
	c.policy.OnAccess(it, now)
	if !e.ValidAt(now) {
		return e, Stale
	}
	return e, Hit
}

func (c *mapCache) Contains(it oodb.Item) bool {
	_, ok := c.entries[it]
	return ok
}

func (c *mapCache) Insert(it oodb.Item, e Entry, now float64) []oodb.Item {
	if old, ok := c.entries[it]; ok {
		*old = e
		return nil
	}
	size := ItemCost(it)
	if size > c.capacityBytes {
		c.rejected++
		return nil
	}
	var evicted []oodb.Item
	for c.usedBytes+size > c.capacityBytes {
		victim, ok := c.policy.Victim(now)
		if !ok {
			panic("core: cache over budget with no victim available")
		}
		c.removeResident(victim)
		c.evictions++
		evicted = append(evicted, victim)
	}
	stored := e
	c.entries[it] = &stored
	c.usedBytes += size
	c.policy.OnInsert(it, now)
	c.insertions++
	return evicted
}

func (c *mapCache) InsertBatch(batch []BatchEntry, now float64) []oodb.Item {
	incoming := 0
	seen := make(map[oodb.Item]bool, len(batch))
	for _, b := range batch {
		if seen[b.Item] || c.Contains(b.Item) || ItemCost(b.Item) > c.capacityBytes {
			continue
		}
		seen[b.Item] = true
		incoming += ItemCost(b.Item)
	}
	var evicted []oodb.Item
	for c.usedBytes+incoming > c.capacityBytes {
		over := c.usedBytes + incoming - c.capacityBytes
		want := over/oodb.AttrSize + 1
		if want > 1024 {
			want = 1024
		}
		victims := c.policy.Victims(now, want)
		if len(victims) == 0 {
			break
		}
		progress := false
		for _, v := range victims {
			if c.usedBytes+incoming <= c.capacityBytes {
				break
			}
			c.removeResident(v)
			c.evictions++
			evicted = append(evicted, v)
			progress = true
		}
		if !progress {
			panic("core: bulk eviction made no progress")
		}
	}
	for _, b := range batch {
		evicted = append(evicted, c.Insert(b.Item, b.Entry, now)...)
	}
	return evicted
}

func (c *mapCache) Remove(it oodb.Item) bool {
	if _, ok := c.entries[it]; !ok {
		return false
	}
	c.removeResident(it)
	return true
}

func (c *mapCache) removeResident(it oodb.Item) {
	if _, ok := c.entries[it]; !ok {
		panic(fmt.Sprintf("core: removing non-resident item %v", it))
	}
	delete(c.entries, it)
	c.usedBytes -= ItemCost(it)
	c.policy.Remove(it)
}

// twinSpecs holds one spec of every policy replacement.Parse accepts.
var twinSpecs = []string{"lru", "mru", "fifo", "lru-3", "lrd", "mean", "win-10", "ewma-0.5", "clock", "random:7"}

// twinSource draws a twin run's choices: a *rand.Rand, or fuzz bytes.
type twinSource interface {
	Intn(n int) int
	Float64() float64
}

// runTwin builds a Cache and its map twin over spec, each from its own
// Parse call (so random:seed draws one stream on both sides), drives them
// through ops operations drawn from src — Insert, InsertBatch, Lookup and
// Remove — and requires the same evicted lists, lookup results,
// residency, sizes and counters after every operation.
func runTwin(t testing.TB, spec string, capacity, ops int, src twinSource) {
	t.Helper()
	newPolicy := func() replacement.Policy {
		factory, err := replacement.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		return factory()
	}
	c, twin := NewCache(capacity, newPolicy()), newMapCache(capacity, newPolicy())
	item := func() oodb.Item {
		if src.Intn(4) == 0 {
			return obj(src.Intn(6))
		}
		return attr(src.Intn(6), src.Intn(5))
	}
	now := 0.0
	for op := 0; op < ops; op++ {
		now += src.Float64()
		what := fmt.Sprintf("%s/%d op %d", spec, capacity, op)
		switch r := src.Intn(100); {
		case r < 35:
			it, e := item(), leased(now+float64(src.Intn(20)))
			got := append([]oodb.Item(nil), c.Insert(it, e, now)...)
			if want := twin.Insert(it, e, now); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Insert(%v) evicted %v, twin %v", what, it, got, want)
			}
		case r < 55:
			batch := make([]BatchEntry, 1+src.Intn(14))
			for i := range batch {
				batch[i] = BatchEntry{Item: item(), Entry: leased(now + float64(src.Intn(20)))}
			}
			got := append([]oodb.Item(nil), c.InsertBatch(batch, now)...)
			if want := twin.InsertBatch(batch, now); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: InsertBatch evicted %v, twin %v", what, got, want)
			}
		case r < 85:
			it := item()
			ge, gs := c.Lookup(it, now)
			we, ws := twin.Lookup(it, now)
			if gs != ws || (ge == nil) != (we == nil) || (ge != nil && *ge != *we) {
				t.Fatalf("%s: Lookup(%v) = %v,%v, twin %v,%v", what, it, ge, gs, we, ws)
			}
		default:
			it := item()
			if got, want := c.Remove(it), twin.Remove(it); got != want {
				t.Fatalf("%s: Remove(%v) = %v, twin %v", what, it, got, want)
			}
		}
		if c.Len() != len(twin.entries) || c.UsedBytes() != twin.usedBytes ||
			c.insertions != twin.insertions || c.evictions != twin.evictions || c.rejected != twin.rejected {
			t.Fatalf("%s: len %d used %d ins %d ev %d rej %d; twin len %d used %d ins %d ev %d rej %d", what,
				c.Len(), c.UsedBytes(), c.insertions, c.evictions, c.rejected,
				len(twin.entries), twin.usedBytes, twin.insertions, twin.evictions, twin.rejected)
		}
		seen := 0
		c.ForEach(func(it oodb.Item, e *Entry) bool {
			seen++
			if we, ok := twin.entries[it]; !ok || *we != *e {
				t.Fatalf("%s: resident %v = %v, twin %v (resident %v)", what, it, *e, we, ok)
			}
			if pe, ok := c.Peek(it); !ok || pe != e {
				t.Fatalf("%s: Peek(%v) disagrees with ForEach", what, it)
			}
			return true
		})
		if seen != c.Len() {
			t.Fatalf("%s: ForEach visited %d of %d residents", what, seen, c.Len())
		}
	}
}

// TestCacheMatchesMapTwin runs every policy through a random twin stream:
// the Cache on the policy's slot core against the map twin on its
// item-keyed adapter. The small budget rejects whole objects, the large
// one mixes both item sizes.
func TestCacheMatchesMapTwin(t *testing.T) {
	for _, spec := range twinSpecs {
		for _, capacity := range []int{6 * attrCost(), 4*objCost() + 3*attrCost()} {
			runTwin(t, spec, capacity, 40_000, rand.New(rand.NewSource(int64(capacity))))
		}
	}
}

// byteSource draws a twin stream from fuzz bytes, then zeros once they
// run out.
type byteSource []byte

func (b *byteSource) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

func (b *byteSource) Intn(n int) int { return int(b.next()) % n }

func (b *byteSource) Float64() float64 { return float64(b.next()) / 256 }

// FuzzCacheTwin is TestCacheMatchesMapTwin on fuzzed input: the first byte
// picks the policy, the second the budget (1 to 48 attribute items), and
// the rest is the op stream, about three bytes an operation.
func FuzzCacheTwin(f *testing.F) {
	for i := range twinSpecs {
		ops := make([]byte, 96)
		rand.New(rand.NewSource(int64(i))).Read(ops)
		f.Add(byte(i), byte(4+i), ops)
	}
	f.Fuzz(func(t *testing.T, spec, budget byte, ops []byte) {
		src := byteSource(ops)
		runTwin(t, twinSpecs[int(spec)%len(twinSpecs)], (1+int(budget)%48)*attrCost(), len(ops)/3, &src)
	})
}
