package buffer

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/oodb"
)

// oid keys every test buffer, as the server's buffer pool is keyed.
type oid = oodb.OID

// Len and Keys are the tests' view of the buffer: the number of cached
// entries, and the keys ordered from most to least recently used.
func (l *LRU[K, V]) Len() int { return l.index.Len() }

func (l *LRU[K, V]) Keys() []K {
	keys := make([]K, 0, l.Len())
	for i := l.head; i != none; i = l.nodes[i].next {
		keys = append(keys, l.nodes[i].key)
	}
	return keys
}

func TestPutGet(t *testing.T) {
	l := NewLRU[oid, string](2)
	l.Put(1, "a")
	l.Put(2, "b")
	if v, ok := l.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q,%v", v, ok)
	}
	if l.Len() != 2 || l.capacity != 2 {
		t.Fatalf("Len=%d Cap=%d", l.Len(), l.capacity)
	}
}

func TestEvictionOrder(t *testing.T) {
	l := NewLRU[oid, int](3)
	l.Put(1, 0)
	l.Put(2, 0)
	l.Put(3, 0)
	l.Get(1) // promote 1; LRU order now 2,3,1
	k, _, ev := l.Put(4, 0)
	if !ev || k != 2 {
		t.Fatalf("evicted %v (ev=%v), want 2", k, ev)
	}
	if l.Contains(2) {
		t.Fatal("evicted key still present")
	}
}

func TestUpdateDoesNotEvict(t *testing.T) {
	l := NewLRU[oid, int](2)
	l.Put(1, 10)
	l.Put(2, 20)
	_, _, ev := l.Put(1, 11) // update in place
	if ev {
		t.Fatal("update caused eviction")
	}
	if v, _ := l.Peek(1); v != 11 {
		t.Fatalf("value not updated: %d", v)
	}
	// 1 is now MRU; inserting 3 evicts 2.
	k, _, ev := l.Put(3, 30)
	if !ev || k != 2 {
		t.Fatalf("evicted %v, want 2", k)
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	l := NewLRU[oid, int](2)
	l.Put(1, 0)
	l.Put(2, 0)
	l.Peek(1)
	k, _, _ := l.Put(3, 0)
	if k != 1 {
		t.Fatalf("evicted %v, want 1 (Peek must not promote)", k)
	}
}

func TestRemove(t *testing.T) {
	l := NewLRU[oid, int](2)
	l.Put(1, 0)
	if !l.Remove(1) {
		t.Fatal("Remove existing returned false")
	}
	if l.Remove(1) {
		t.Fatal("Remove missing returned true")
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d", l.Len())
	}
	// Removed key must not come back as an eviction victim.
	l.Put(2, 0)
	l.Put(3, 0)
	k, _, ev := l.Put(4, 0)
	if !ev || k != 2 {
		t.Fatalf("evicted %v, want 2", k)
	}
}

func TestOldestNewestKeys(t *testing.T) {
	l := NewLRU[oid, int](3)
	if len(l.Keys()) != 0 || l.head != none || l.tail != none {
		t.Fatal("empty list has keys")
	}
	l.Put(1, 0)
	l.Put(2, 0)
	l.Put(3, 0)
	if k := l.nodes[l.tail].key; k != 1 {
		t.Fatalf("oldest = %v", k)
	}
	if k := l.nodes[l.head].key; k != 3 {
		t.Fatalf("newest = %v", k)
	}
	if !reflect.DeepEqual(l.Keys(), []oid{3, 2, 1}) {
		t.Fatalf("Keys = %v", l.Keys())
	}
}

func TestHitCounters(t *testing.T) {
	l := NewLRU[oid, int](2)
	l.Put(1, 0)
	l.Get(1)
	l.Get(2)
	if l.hits != 1 || l.misses != 1 {
		t.Fatalf("hits=%d misses=%d", l.hits, l.misses)
	}
	if l.HitRatio() != 0.5 {
		t.Fatalf("HitRatio = %v", l.HitRatio())
	}
}

func TestHitRatioEmpty(t *testing.T) {
	l := NewLRU[oid, int](1)
	if l.HitRatio() != 0 {
		t.Fatal("HitRatio on untouched cache")
	}
}

func TestClear(t *testing.T) {
	l := NewLRU[oid, int](2)
	l.Put(1, 0)
	l.Put(2, 0)
	l.Clear()
	if l.Len() != 0 {
		t.Fatalf("Len after Clear = %d", l.Len())
	}
	if l.Contains(1) {
		t.Fatal("entry survived Clear")
	}
	// Cache still usable after Clear.
	l.Put(5, 0)
	if !l.Contains(5) {
		t.Fatal("Put after Clear failed")
	}
}

func TestCapacityOne(t *testing.T) {
	l := NewLRU[oid, int](1)
	l.Put(1, 0)
	k, _, ev := l.Put(2, 0)
	if !ev || k != 1 {
		t.Fatalf("evicted %v", k)
	}
	if !l.Contains(2) || l.Contains(1) {
		t.Fatal("wrong resident set")
	}
}

func TestNewLRUPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLRU(0) did not panic")
		}
	}()
	NewLRU[oid, int](0)
}

// Removed and evicted nodes are reused before the node slice grows, values
// follow their keys through the reuse, and Clear forgets the free list along
// with the entries.
func TestFreeListRecycles(t *testing.T) {
	l := NewLRU[oid, int](4)
	for k := oid(1); k <= 4; k++ {
		l.Put(k, int(k)*10)
	}
	l.Remove(2)
	l.Remove(4)
	l.Put(5, 50)
	l.Put(6, 60)
	if len(l.nodes) != 4 {
		t.Fatalf("%d nodes after refilling two removed entries, want 4", len(l.nodes))
	}
	if !reflect.DeepEqual(l.Keys(), []oid{6, 5, 3, 1}) {
		t.Fatalf("Keys = %v", l.Keys())
	}
	if k, v, ev := l.Put(7, 70); !ev || k != 1 || v != 10 || len(l.nodes) != 4 {
		t.Fatalf("Put at capacity evicted %v=%v (ev=%v) with %d nodes", k, v, ev, len(l.nodes))
	}
	for _, k := range l.Keys() {
		if v, _ := l.Peek(k); v != int(k)*10 {
			t.Fatalf("Peek(%v) = %d after node reuse", k, v)
		}
	}
	l.Remove(5) // leave a node on the free list for Clear to drop
	l.Clear()
	if l.tail != none || l.Len() != 0 {
		t.Fatal("entries survived Clear")
	}
	for k := oid(8); k <= 11; k++ {
		l.Put(k, int(k)*10)
	}
	if !reflect.DeepEqual(l.Keys(), []oid{11, 10, 9, 8}) || len(l.nodes) != 4 {
		t.Fatalf("after Clear and refill: Keys = %v, %d nodes", l.Keys(), len(l.nodes))
	}
	if k, _, ev := l.Put(12, 120); !ev || k != 8 {
		t.Fatalf("evicted %v (ev=%v), want 8", k, ev)
	}
}

// A buffer at capacity serves hits, misses, replacing puts and evicting puts
// without allocating.
func TestNoAllocsAtCapacity(t *testing.T) {
	l := NewLRU[oid, int](500)
	for k := oid(0); k < 500; k++ {
		l.Put(k, 0)
	}
	next := oid(500)
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Get(next - 1)
		l.Get(next)
		l.Put(next-2, 1)
		l.Put(next, 0)
		next++
	}); allocs != 0 {
		t.Fatalf("Get/Put at capacity allocate %v times per run", allocs)
	}
}

// The node slice stops growing at the buffer's capacity, however entries
// churn through it (a capacity that is no power of two, so growth by
// doubling alone would pass it), and a full buffer allocates nothing.
func TestNodesStopAtCapacity(t *testing.T) {
	for _, capacity := range []int{1, 3, 77, 500} {
		l := NewLRU[oid, int](capacity)
		for k := oid(0); k < oid(20*capacity); k++ {
			l.Put(k%oid(3*capacity), 0)
			if k%5 == 0 {
				l.Remove(k / 2)
			}
		}
		if l.index.Len() != capacity {
			t.Fatalf("capacity %d: holds %d entries after the churn", capacity, l.index.Len())
		}
		if cap(l.nodes) > capacity {
			t.Fatalf("capacity %d: %d nodes allocated", capacity, cap(l.nodes))
		}
	}
}

// naiveLRU is a reference model for property testing.
type naiveLRU struct {
	cap  int
	keys []oid // most recent first
}

func (n *naiveLRU) touch(k oid) bool {
	for i, key := range n.keys {
		if key == k {
			n.keys = append(n.keys[:i], n.keys[i+1:]...)
			n.keys = append([]oid{k}, n.keys...)
			return true
		}
	}
	return false
}

func (n *naiveLRU) put(k oid) (evicted oid, ok bool) {
	if n.touch(k) {
		return 0, false
	}
	n.keys = append([]oid{k}, n.keys...)
	if len(n.keys) > n.cap {
		v := n.keys[len(n.keys)-1]
		n.keys = n.keys[:len(n.keys)-1]
		return v, true
	}
	return 0, false
}

// Property: LRU matches a naive reference model under arbitrary op streams,
// and never exceeds capacity.
func TestQuickLRUMatchesModel(t *testing.T) {
	f := func(ops []uint8, capRaw uint8) bool {
		capacity := int(capRaw)%5 + 1
		l := NewLRU[oid, int](capacity)
		model := &naiveLRU{cap: capacity}
		for _, op := range ops {
			key := oid(op) % 8
			switch (op / 8) % 4 {
			case 0: // put
				gotK, _, gotEv := l.Put(key, int(key))
				wantK, wantEv := model.put(key)
				if gotEv != wantEv || (gotEv && gotK != wantK) {
					return false
				}
			case 1: // get
				_, got := l.Get(key)
				want := model.touch(key)
				if got != want {
					return false
				}
			case 2: // contains (no promotion)
				got := l.Contains(key)
				want := false
				for _, k := range model.keys {
					if k == key {
						want = true
					}
				}
				if got != want {
					return false
				}
			case 3: // remove: the freed node is the next Put's
				got := l.Remove(key)
				want := false
				for i, k := range model.keys {
					if k == key {
						model.keys = append(model.keys[:i], model.keys[i+1:]...)
						want = true
						break
					}
				}
				if got != want {
					return false
				}
			}
			if l.Len() > capacity || l.Len() != len(model.keys) {
				return false
			}
			if !reflect.DeepEqual(l.Keys(), append([]oid{}, model.keys...)) &&
				!(len(l.Keys()) == 0 && len(model.keys) == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLRUPutGet(b *testing.B) {
	l := NewLRU[oid, int](500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Put(oid(i%2000), i)
		l.Get(oid((i * 7) % 2000))
	}
}
