// Package buffer provides the LRU memory buffers used at the server and at
// each mobile client.
//
// §4 of the paper: "LRU is employed for buffer management at the server and
// the clients since memory buffer replacement is implemented by the
// operating system." The server buffer holds 500 objects (25% of the
// database); each client memory buffer holds 30 objects. Storage caching at
// clients uses the pluggable policies in internal/replacement instead.
//
// Both buffers are the one LRU type below: an array-backed recency list
// located through an oodb.ItemIndex, keyed by oodb.OID at the server and by
// oodb.Item at the clients.
package buffer

import "repro/internal/oodb"

// Key is what an LRU can be keyed by: a comparable value that packs itself
// into an oodb.ItemIndex key (oodb.Item, oodb.OID).
type Key interface {
	comparable
	Key() uint64
}

// LRU is a fixed-capacity least-recently-used cache. Values travel with the
// keys so callers can attach metadata (versions, expiry). Entries are nodes
// of one slice, doubly linked by position and located through an
// oodb.ItemIndex; removed nodes wait on a free list, so a buffer at capacity
// allocates nothing, and the slice stops growing at capacity nodes. The zero
// value is not usable; construct with NewLRU.
type LRU[K Key, V any] struct {
	capacity int
	index    oodb.ItemIndex
	nodes    []node[K, V]
	head     int32 // most recently used, or none
	tail     int32 // least recently used, or none
	free     int32 // first recycled node (chained through next), or none

	hits   uint64
	misses uint64
}

const none int32 = -1

type node[K Key, V any] struct {
	key        K
	value      V
	prev, next int32
}

// NewLRU returns an empty cache holding at most capacity entries.
// It panics if capacity <= 0.
func NewLRU[K Key, V any](capacity int) *LRU[K, V] {
	if capacity <= 0 {
		panic("buffer: LRU capacity must be positive")
	}
	return &LRU[K, V]{capacity: capacity, head: none, tail: none, free: none}
}

// Get looks up key, promoting it to most-recently-used on a hit.
func (l *LRU[K, V]) Get(key K) (V, bool) {
	if i, ok := l.index.Get(key.Key()); ok {
		l.hits++
		l.moveToFront(i)
		return l.nodes[i].value, true
	}
	l.misses++
	var zero V
	return zero, false
}

// Peek looks up key without promoting it and without touching hit counters.
func (l *LRU[K, V]) Peek(key K) (V, bool) {
	if i, ok := l.index.Get(key.Key()); ok {
		return l.nodes[i].value, true
	}
	var zero V
	return zero, false
}

// Contains reports whether key is cached, without promotion.
func (l *LRU[K, V]) Contains(key K) bool {
	_, ok := l.index.Get(key.Key())
	return ok
}

// GetOrPut is Get, except that a miss also puts value under key as Put
// would, without looking key up a second time. It returns the value
// cached before the call and whether there was one.
func (l *LRU[K, V]) GetOrPut(key K, value V) (V, bool) {
	if i, ok := l.index.Get(key.Key()); ok {
		l.hits++
		l.moveToFront(i)
		return l.nodes[i].value, true
	}
	l.misses++
	l.add(key, value)
	var zero V
	return zero, false
}

// Put inserts or updates key, promoting it to most-recently-used. If the
// cache overflows, the least-recently-used entry is evicted and returned
// with evicted=true.
func (l *LRU[K, V]) Put(key K, value V) (evictedKey K, evictedValue V, evicted bool) {
	if i, ok := l.index.Get(key.Key()); ok {
		l.nodes[i].value = value
		l.moveToFront(i)
		return evictedKey, evictedValue, false
	}
	return l.add(key, value)
}

// add is Put of an absent key.
func (l *LRU[K, V]) add(key K, value V) (evictedKey K, evictedValue V, evicted bool) {
	if l.index.Len() == l.capacity {
		victim := &l.nodes[l.tail]
		evictedKey, evictedValue, evicted = victim.key, victim.value, true
		l.index.Delete(victim.key.Key())
		l.recycle(l.tail)
	}
	i := l.free
	if i != none {
		l.free = l.nodes[i].next
	} else {
		i = int32(len(l.nodes))
		l.nodes = oodb.AppendCapped(l.nodes, l.capacity, node[K, V]{})
	}
	l.nodes[i].key, l.nodes[i].value = key, value
	l.index.Set(key.Key(), i)
	l.pushFront(i)
	return evictedKey, evictedValue, evicted
}

// Remove deletes key if present, reporting whether it was cached.
func (l *LRU[K, V]) Remove(key K) bool {
	i, ok := l.index.Delete(key.Key())
	if ok {
		l.recycle(i)
	}
	return ok
}

// recycle unlinks node i, whose key has left the index, and puts it on the
// free list, zeroing its key and value so references held through them do
// not outlive the entry.
func (l *LRU[K, V]) recycle(i int32) {
	l.unlink(i)
	l.nodes[i] = node[K, V]{next: l.free}
	l.free = i
}

// Clear removes all entries, preserving hit/miss counters.
func (l *LRU[K, V]) Clear() {
	l.index.Reset()
	for i := range l.nodes {
		l.nodes[i] = node[K, V]{} // drop key/value references
	}
	l.nodes = l.nodes[:0]
	l.head, l.tail, l.free = none, none, none
}

// Capacity returns the most entries the cache holds.
func (l *LRU[K, V]) Capacity() int { return l.capacity }

// HitRatio returns hits/(hits+misses) over all Get calls (0 when none).
func (l *LRU[K, V]) HitRatio() float64 {
	total := l.hits + l.misses
	if total == 0 {
		return 0
	}
	return float64(l.hits) / float64(total)
}

func (l *LRU[K, V]) pushFront(i int32) {
	n := &l.nodes[i]
	n.prev, n.next = none, l.head
	if l.head != none {
		l.nodes[l.head].prev = i
	}
	l.head = i
	if l.tail == none {
		l.tail = i
	}
}

func (l *LRU[K, V]) unlink(i int32) {
	n := &l.nodes[i]
	if n.prev != none {
		l.nodes[n.prev].next = n.next
	} else {
		l.head = n.next
	}
	if n.next != none {
		l.nodes[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
}

func (l *LRU[K, V]) moveToFront(i int32) {
	if l.head == i {
		return
	}
	l.unlink(i)
	l.pushFront(i)
}
