package core

import (
	"fmt"
	"math"

	"repro/internal/oodb"
	"repro/internal/replacement"
)

// EntryOverhead is the per-item bookkeeping cost in the storage cache, in
// bytes: the paper's cache table keeps a local surrogate (R.oid, R.host),
// the cached value slot, the lease expiry, and the version stamp for every
// cached item. Fine-grained (attribute) caching pays this once per
// attribute, whole-object caching once per object — the classic metadata
// tax on fine granularity that §2 of the paper alludes to.
const EntryOverhead = 48

// ItemCost returns the storage budget consumed by caching an item: its
// payload plus the per-entry bookkeeping overhead.
func ItemCost(it oodb.Item) int { return it.Size() + EntryOverhead }

// Entry is the metadata a client keeps per cached item: the server-side
// version captured at fetch time (consumed by the error oracle) and the
// absolute lease expiry derived from the server's refresh-time estimate.
type Entry struct {
	Version   uint64
	ExpiresAt float64
	FetchedAt float64
}

// ValidAt reports whether the lease is still running at time t.
func (e Entry) ValidAt(t float64) bool { return t < e.ExpiresAt }

// LookupState classifies the outcome of a cache probe.
type LookupState int

const (
	// Miss: the item is not resident.
	Miss LookupState = iota
	// Stale: the item is resident but its lease has expired; a connected
	// client must refresh it, a disconnected one may still read it
	// (§3.2, §5.6).
	Stale
	// Hit: the item is resident with a running lease.
	Hit
)

// String renders the state for logs and tests.
func (s LookupState) String() string {
	switch s {
	case Miss:
		return "miss"
	case Stale:
		return "stale"
	case Hit:
		return "hit"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Cache is the client's storage cache: a byte-budgeted table of database
// items ranked by a replacement policy. The paper sizes it at 20% of the
// database (400 objects × 1024 B); attribute items consume AttrSize bytes
// so AC/HC fit many more entries than OC.
//
// Residents live in two parallel slices (items[i] holds the key of
// slots[i]) located through an oodb.ItemIndex, the only item → slot index:
// the replacement policy is its slot core, told of every insert, access and
// removal by slot id. Removal moves the last resident into the hole, and
// the core mirrors the move. No per-slot array, the core's included, grows
// past maxSlots, the most residents the budget admits (but for a quarter
// more as tombstone room in the core's arrival runs).
//
// What lives only for one install — InsertBatch's working sets, the
// victim search's, the evicted items returned — is in a Scratch, which
// the caches of one goroutine may share.
type Cache struct {
	capacityBytes int
	usedBytes     int
	maxSlots      int
	objects       int // residents that are whole objects
	index         oodb.ItemIndex
	items         []oodb.Item
	slots         []Entry
	policy        replacement.SlotCore
	s             *Scratch

	insertions uint64
	evictions  uint64
	rejected   uint64
}

// Scratch is the working memory of one install: a Hierarchy's staged
// reply, a Cache's batch bookkeeping and the evicted items it returns, and
// its replacement core's victim search. A Hierarchy or Cache uses it only
// inside one call, so every hierarchy driven from one goroutine can share
// one — the simulator shares one per cell, whose clients all run on one
// kernel goroutine — and a slice a call returns from it is valid until the
// next mutating call on any hierarchy sharing it. It must never be shared
// across goroutines. The zero value is ready to use.
type Scratch struct {
	batch   []BatchEntry   // Hierarchy: the reply being installed
	mem     []int32        // Hierarchy: positions in batch bound for the memory buffer
	fresh   []bool         // InsertBatch: batch[j] is the first copy of a new item
	seen    oodb.ItemIndex // the items of one pass over a batch, each once
	victims []oodb.Item    // InsertBatch's victims, mapped from the core's slots
	evicted []oodb.Item    // returned by Insert and InsertBatch
	search  replacement.Scratch
}

// NewCache builds a storage cache with the given byte capacity and policy,
// and a scratch of its own. The cache takes the policy over
// (replacement.Slots): it must track no items, and nothing else may call it
// afterwards.
func NewCache(capacityBytes int, policy replacement.Policy) *Cache {
	return newCache(capacityBytes, policy, new(Scratch))
}

// newCache is NewCache working in s.
func newCache(capacityBytes int, policy replacement.Policy, s *Scratch) *Cache {
	if capacityBytes <= 0 {
		panic("core: cache capacity must be positive")
	}
	if policy == nil {
		panic("core: cache requires a replacement policy")
	}
	// An attribute is the smallest item, so no budget holds more of them.
	maxSlots := capacityBytes / ItemCost(oodb.AttrItem(0, 0))
	return &Cache{
		capacityBytes: capacityBytes,
		maxSlots:      maxSlots,
		policy:        replacement.Slots(policy, &s.search, maxSlots),
		s:             s,
	}
}

// Lookup probes the cache for item at time now. Resident items — valid or
// stale — are recorded as accesses with the replacement policy, since the
// access probability the policy estimates does not depend on lease state.
// The returned entry is live cache state; callers must not retain it across
// mutations.
func (c *Cache) Lookup(it oodb.Item, now float64) (*Entry, LookupState) {
	i, ok := c.index.Get(it.Key())
	if !ok {
		return nil, Miss
	}
	e := &c.slots[i]
	c.policy.Touch(i, now)
	if !e.ValidAt(now) {
		return e, Stale
	}
	return e, Hit
}

// Peek returns the entry without touching replacement state; like Lookup's,
// the pointer must not be retained across mutations.
func (c *Cache) Peek(it oodb.Item) (*Entry, bool) {
	i, ok := c.index.Get(it.Key())
	if !ok {
		return nil, false
	}
	return &c.slots[i], true
}

// Contains reports residency without touching replacement state.
func (c *Cache) Contains(it oodb.Item) bool {
	_, ok := c.index.Get(it.Key())
	return ok
}

// Insert caches (or refreshes) item with the given metadata, evicting
// victims as needed to respect the byte budget. It returns the evicted
// items in the cache's Scratch, valid until the next mutating call on
// anything sharing it. Items larger than the whole cache are rejected
// (never cached).
//
// A refresh of a resident item only updates its metadata: the access was
// already recorded by the Lookup that discovered the miss/staleness, and a
// server-initiated prefetch of an already-resident item is not a client
// access at all.
func (c *Cache) Insert(it oodb.Item, e Entry, now float64) []oodb.Item {
	c.s.evicted = c.s.evicted[:0]
	c.insert(it, e, now)
	return c.s.evicted
}

// insert is Insert appending its victims to the scratch's evicted.
func (c *Cache) insert(it oodb.Item, e Entry, now float64) {
	if i, ok := c.index.Get(it.Key()); ok {
		c.slots[i] = e
		return
	}
	if ItemCost(it) > c.capacityBytes {
		c.rejected++
		return
	}
	c.add(it, e, now)
}

// add makes it resident in a new slot, evicting policy victims until it
// fits. it must be absent and fit the whole cache.
func (c *Cache) add(it oodb.Item, e Entry, now float64) {
	size := ItemCost(it)
	for c.usedBytes+size > c.capacityBytes {
		victim, ok := c.policy.Victim(now)
		if !ok {
			panic("core: cache over budget with no victim available")
		}
		c.index.Delete(c.items[victim].Key())
		c.evict(victim)
	}
	c.index.Set(it.Key(), int32(len(c.items)))
	c.items = oodb.AppendCapped(c.items, c.maxSlots, it)
	c.slots = oodb.AppendCapped(c.slots, c.maxSlots, e)
	c.usedBytes += size
	if it.IsObject() {
		c.objects++
	}
	c.policy.Insert(it, now)
	c.insertions++
}

// evict removes the resident in slot i, whose key the caller has deleted
// from the index, and records it in the scratch's evicted.
func (c *Cache) evict(i int32) {
	c.evictions++
	c.s.evicted = append(c.s.evicted, c.items[i])
	c.removeAt(i)
}

// BatchEntry pairs an item with its metadata for InsertBatch.
type BatchEntry struct {
	Item  oodb.Item
	Entry Entry
}

// InsertBatch caches a whole reply's items at once. It frees room for the
// batch with bulk victim selection (one policy scan yields many victims)
// before inserting, which is what keeps large replies (OC objects, HC
// prefetch sets) affordable; the set of evicted items matches what repeated
// single Inserts would have chosen at the same instant. Returns all evicted
// items in the cache's Scratch, valid until the next mutating call on
// anything sharing it. batch may be the Scratch's own staged reply.
func (c *Cache) InsertBatch(batch []BatchEntry, now float64) []oodb.Item {
	s := c.s
	s.evicted = s.evicted[:0]
	// Bytes the batch will add: new, cacheable items, each counted once.
	// A probe of the cache finds the new items, and the scratch's set of
	// the batch's new items marks the first copy of each.
	incoming := 0
	s.fresh = s.fresh[:0]
	s.seen.Reset()
	for _, b := range batch {
		fresh := ItemCost(b.Item) <= c.capacityBytes && !c.Contains(b.Item) && s.seen.Set(b.Item.Key(), 0)
		if fresh {
			incoming += ItemCost(b.Item)
		}
		s.fresh = append(s.fresh, fresh)
	}
	for c.usedBytes+incoming > c.capacityBytes {
		over := c.usedBytes + incoming - c.capacityBytes
		// An attribute frees ItemCost (AttrSize + EntryOverhead) bytes, so
		// this asks for about 1.56× the evictions needed. For an unranked
		// core the count is behavioural, not just a buffer size: clock
		// re-marks every victim it returns and random draws a sample of
		// this size, so dividing by ItemCost instead changes which items
		// they evict (TestCacheMatchesMapTwin fails on clock/798) and every
		// golden built on them.
		want := min(over/oodb.AttrSize+1, 1024)
		if c.policy.Ranked() {
			// A ranked core's victims are a prefix of that request's, and
			// each frees at least the cheapest resident's cost: this many
			// suffice, and when the residents cost alike all are evicted.
			least := c.leastCost()
			want = min(want, (over+least-1)/least)
		}
		s.victims = s.victims[:0]
		for _, slot := range c.policy.Victims(now, want) {
			s.victims = append(s.victims, c.items[slot])
		}
		if len(s.victims) == 0 {
			// The batch alone exceeds the whole cache: nothing left to
			// bulk-evict. The per-item phase below will evict earlier
			// batch items as later ones insert.
			break
		}
		progress := false
		for _, v := range s.victims {
			if c.usedBytes+incoming <= c.capacityBytes {
				break
			}
			i, ok := c.index.Delete(v.Key())
			if !ok {
				panic(fmt.Sprintf("core: removing non-resident item %v", v))
			}
			c.evict(i)
			progress = true
		}
		if !progress {
			panic("core: bulk eviction made no progress")
		}
	}
	// The first copy of a new item takes its slot without another lookup:
	// bulk eviction cannot have touched it, as its victims were resident.
	// The rest are refreshes, or the corner cases insert copes with (a
	// resident batch item just selected as a victim, an item larger than
	// the cache).
	for j, b := range batch {
		if s.fresh[j] {
			c.add(b.Item, b.Entry, now)
		} else {
			c.insert(b.Item, b.Entry, now)
		}
	}
	return s.evicted
}

// Remove drops item from the cache (explicit invalidation), reporting
// whether it was resident.
func (c *Cache) Remove(it oodb.Item) bool {
	i, ok := c.index.Delete(it.Key())
	if ok {
		c.removeAt(i)
	}
	return ok
}

// removeAt drops the resident in slot i, whose key the caller has deleted
// from the index, by moving the last resident into the hole; the policy's
// core mirrors the move.
func (c *Cache) removeAt(i int32) {
	c.usedBytes -= ItemCost(c.items[i])
	if c.items[i].IsObject() {
		c.objects--
	}
	last := int32(len(c.items) - 1)
	if i != last {
		c.items[i], c.slots[i] = c.items[last], c.slots[last]
		c.index.Set(c.items[i].Key(), i)
	}
	c.items, c.slots = c.items[:last], c.slots[:last]
	c.policy.Remove(i)
}

// ForEach visits every resident item in unspecified order; fn returning
// false stops the iteration. fn must not mutate the cache; collect items
// first and mutate afterwards.
func (c *Cache) ForEach(fn func(it oodb.Item, e *Entry) bool) {
	for i, it := range c.items {
		if !fn(it, &c.slots[i]) {
			return
		}
	}
}

// leastCost returns the smallest ItemCost of a resident: an attribute's,
// unless every resident is a whole object.
func (c *Cache) leastCost() int {
	if c.objects < len(c.items) {
		return ItemCost(oodb.AttrItem(0, 0))
	}
	return ItemCost(oodb.ObjectItem(0))
}

// Len returns the number of resident items.
func (c *Cache) Len() int { return len(c.items) }

// UsedBytes returns the occupied byte budget.
func (c *Cache) UsedBytes() int { return c.usedBytes }

// CapacityBytes returns the byte budget.
func (c *Cache) CapacityBytes() int { return c.capacityBytes }

// Insertions returns the number of distinct item insertions.
func (c *Cache) Insertions() uint64 { return c.insertions }

// Evictions returns the number of evictions performed.
func (c *Cache) Evictions() uint64 { return c.evictions }

// ValidFraction returns the fraction of resident items whose lease is still
// running at time now (diagnostic for coherence experiments).
func (c *Cache) ValidFraction(now float64) float64 {
	if len(c.slots) == 0 {
		return 0
	}
	valid := 0
	for _, e := range c.slots {
		if e.ValidAt(now) {
			valid++
		}
	}
	return float64(valid) / float64(len(c.slots))
}

// CoverItem maps a single attribute read to the cache item that would
// satisfy it under granularity g: the whole object under OC (and NC's
// memory buffer), the attribute itself under AC/HC.
func CoverItem(g Granularity, oid oodb.OID, attr oodb.AttrID) oodb.Item {
	if g.UsesAttributeItems() {
		return oodb.AttrItem(oid, attr)
	}
	return oodb.ObjectItem(oid)
}

// NoExpiryEntry builds an Entry that never expires, for tests and for
// read-only workloads where the server reports no write history.
func NoExpiryEntry(version uint64, now float64) Entry {
	return Entry{Version: version, ExpiresAt: math.MaxFloat64, FetchedAt: now}
}
