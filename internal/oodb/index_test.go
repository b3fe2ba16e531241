package oodb

import (
	"math"
	"math/rand"
	"testing"
)

// indexUniverse is the key population of the model and fuzz tests: OIDs
// counted up from 0 and down from MaxUint32 alternately, and for each the
// whole-object item next to attribute 0, so packed keys that differ only in
// the low byte or only in the top bits all meet in one table. The low OIDs
// lie inside the presence mask's span and the high ones beyond it, and the
// low bytes NumAttrs and WholeObject-1 name no attribute: both kinds must
// keep answering through the hash path.
func indexUniverse(n int) []Item {
	attrs := []AttrID{0, 1, NumAttrs - 1, WholeObject, NumAttrs, WholeObject - 1}
	items := make([]Item, 0, n+len(attrs))
	for i := 0; len(items) < n; i++ {
		oid := OID(i / 2)
		if i%2 == 1 {
			oid = math.MaxUint32 - oid
		}
		for _, a := range attrs {
			items = append(items, Item{OID: oid, Attr: a})
		}
	}
	return items[:n]
}

// indexModel drives an ItemIndex and the runtime's map through the same
// operations and fails on the first disagreement. After each Set, Delete
// and Reset it also checks the presence mask against the map: the touched
// object's bits, or every universe key when the table was reset or grew
// (which rebuilds the mask).
type indexModel struct {
	t        testing.TB
	x        ItemIndex
	model    map[Item]int32
	universe []Item
}

func (m *indexModel) set(it Item, slot int32) {
	cells := len(m.x.cells)
	m.x.Set(it.Key(), slot)
	m.model[it] = slot
	m.checkLen()
	if len(m.x.cells) != cells {
		m.checkMask(m.universe)
	} else {
		m.checkObject(it.OID)
	}
}

func (m *indexModel) get(it Item) {
	got, ok := m.x.Get(it.Key())
	want, wantOK := m.model[it]
	if ok != wantOK || got != want {
		m.t.Fatalf("Get(%v) = %d,%v; map has %d,%v", it, got, ok, want, wantOK)
	}
}

func (m *indexModel) delete(it Item) {
	got, ok := m.x.Delete(it.Key())
	want, wantOK := m.model[it]
	delete(m.model, it)
	if ok != wantOK || got != want {
		m.t.Fatalf("Delete(%v) = %d,%v; map had %d,%v", it, got, ok, want, wantOK)
	}
	m.checkLen()
	m.checkObject(it.OID)
}

func (m *indexModel) reset() {
	m.x.Reset()
	for it := range m.model {
		delete(m.model, it)
	}
	m.checkLen()
	m.checkMask(m.universe)
}

func (m *indexModel) checkLen() {
	if m.x.Len() != len(m.model) {
		m.t.Fatalf("Len = %d, map has %d", m.x.Len(), len(m.model))
	}
}

// checkMask fails unless, for every item inside the mask's domain, its
// mask bit equals its presence in the map.
func (m *indexModel) checkMask(items []Item) {
	for _, it := range items {
		word, bit, ok := m.x.maskBit(it.Key())
		if !ok {
			continue
		}
		_, want := m.model[it]
		if got := m.x.present[word]>>bit&1 != 0; got != want {
			m.t.Fatalf("mask bit of %v = %v; map has it: %v", it, got, want)
		}
	}
}

// checkObject checks the mask bit of every attribute and the whole object
// of oid.
func (m *indexModel) checkObject(oid OID) {
	var items [NumAttrs + 1]Item
	for a := range items[:NumAttrs] {
		items[a] = AttrItem(oid, AttrID(a))
	}
	items[NumAttrs] = ObjectItem(oid)
	m.checkMask(items[:])
}

// checkAll looks every universe item up: a key the backward shift stranded
// behind a hole, or a stale copy it left, shows here; so does a mask bit
// out of step with the map.
func (m *indexModel) checkAll(universe []Item) {
	for _, it := range universe {
		m.get(it)
	}
	m.checkMask(universe)
}

// TestItemIndexMatchesMap runs random Set/Get/Delete/Reset streams at three
// occupancies (a handful of keys in the smallest table, a thin fleet
// client's cache, a paper-size cache) against map[Item]int32, 1.2M
// operations in all. The universe is twice the target, so inserts and
// deletes balance at it.
func TestItemIndexMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		occupancy, ops int
	}{{3, 200_000}, {80, 400_000}, {3200, 600_000}} {
		universe := indexUniverse(2 * tc.occupancy)
		rnd := rand.New(rand.NewSource(int64(tc.occupancy)))
		m := &indexModel{t: t, model: map[Item]int32{}, universe: universe}
		for op := 0; op < tc.ops; op++ {
			it := universe[rnd.Intn(len(universe))]
			switch r := rnd.Intn(100_000); {
			case r == 0:
				m.reset()
			case r%4 == 0:
				m.set(it, int32(op))
			case r%4 == 1:
				m.delete(it)
			default:
				m.get(it)
			}
			if op%4096 == 0 {
				m.checkAll(universe)
			}
		}
		m.checkAll(universe)
	}
}

// keysHomedAt returns n distinct universe items whose first probe position
// in a table of 8 cells is cell.
func keysHomedAt(t testing.TB, cell, n int) []Item {
	x := ItemIndex{shift: 61}
	var out []Item
	for _, it := range indexUniverse(4096) {
		if x.home(it.Key()+1) == cell {
			if out = append(out, it); len(out) == n {
				return out
			}
		}
	}
	t.Fatalf("universe has fewer than %d keys homed at cell %d", n, cell)
	return nil
}

// TestItemIndexShiftWrapsTableEnd builds a probe chain that starts in the
// last cell of an 8-cell table and continues in cells 0..2, then deletes
// from its head, middle and tail: the backward shift must carry cells
// across the wrap without losing the ones homed before it.
func TestItemIndexShiftWrapsTableEnd(t *testing.T) {
	chain := keysHomedAt(t, 7, 4)
	for victim := range chain {
		m := &indexModel{t: t, model: map[Item]int32{}, universe: chain}
		for i, it := range chain {
			m.set(it, int32(i))
		}
		if len(m.x.cells) != 8 {
			t.Fatalf("table grew to %d cells; the chain no longer wraps", len(m.x.cells))
		}
		m.delete(chain[victim])
		m.checkAll(chain)
		// A key homed inside the wrapped part must not be pulled back
		// across its own home.
		inside := keysHomedAt(t, 1, 1)[0]
		m.set(inside, 99)
		m.delete(chain[(victim+1)%len(chain)])
		m.checkAll(append(chain, inside))
	}
}

// TestItemIndexGrowsMidChain fills one chain until the table doubles under
// it, then checks every key and that the chain still deletes cleanly.
func TestItemIndexGrowsMidChain(t *testing.T) {
	chain := keysHomedAt(t, 6, 7) // the 7th Set passes 3/4 of 8 cells
	m := &indexModel{t: t, model: map[Item]int32{}, universe: chain}
	for i, it := range chain {
		m.set(it, int32(i))
		m.checkAll(chain)
	}
	if len(m.x.cells) != 16 {
		t.Fatalf("cells = %d after 7 keys, want 16", len(m.x.cells))
	}
	for _, it := range chain {
		m.delete(it)
		m.checkAll(chain)
	}
}

// TestItemIndexBoundaryKeys: attribute 0 and the whole object of one OID,
// and the smallest and largest OIDs, are four different keys.
func TestItemIndexBoundaryKeys(t *testing.T) {
	items := []Item{
		AttrItem(0, 0), ObjectItem(0),
		AttrItem(math.MaxUint32, 0), ObjectItem(math.MaxUint32),
	}
	m := &indexModel{t: t, model: map[Item]int32{}, universe: items}
	for i, it := range items {
		m.set(it, int32(i))
	}
	m.checkAll(items)
	m.delete(ObjectItem(0))
	m.checkAll(items)
	if OID(7).Key() != ObjectItem(7).Key() {
		t.Fatalf("OID(7).Key() = %d, ObjectItem(7).Key() = %d", OID(7).Key(), ObjectItem(7).Key())
	}
}

// TestItemIndexMaskFootprint: at every size an index grows through, its
// presence mask reaches exactly the highest object id it holds below the
// span and takes no more bytes than its keys array. A Table-1 storage
// cache's 8 192-cell index over the 2 000-object database, filled in
// random order, carries 4 KB of mask, not the span's 64 KB.
func TestItemIndexMaskFootprint(t *testing.T) {
	var x ItemIndex
	for i := 0; i < 20_000; i++ {
		oid := OID(i / NumAttrs)
		x.Set(AttrItem(oid, AttrID(i%NumAttrs)).Key(), int32(i))
		if 2*cap(x.present) > 8*len(x.cells) {
			t.Fatalf("%d keys: mask %d B > keys %d B", x.Len(), 2*cap(x.present), 8*len(x.cells))
		}
		if int(oid) < 4*len(x.cells) && len(x.present) != int(oid)+1 {
			t.Fatalf("%d keys up to object %d: mask of %d words", x.Len(), oid, len(x.present))
		}
	}
	var y ItemIndex
	for i, k := range rand.New(rand.NewSource(1)).Perm(DefaultNumObjects * NumAttrs)[:4000] {
		y.Set(AttrItem(OID(k/NumAttrs), AttrID(k%NumAttrs)).Key(), int32(i))
	}
	if len(y.cells) != 8192 || len(y.present) != DefaultNumObjects || cap(y.present) > DefaultNumObjects*5/4 {
		t.Fatalf("%d cells over %d objects: mask of %d words, capacity %d", len(y.cells), DefaultNumObjects, len(y.present), cap(y.present))
	}
}

// TestItemIndexBytesPerKey: at every key count up to 2^16, the table takes
// no more bytes than the layout it replaced, parallel 8-byte key and
// 4-byte slot arrays grown by doubling at 3/4 load from 8 cells. (The mask
// follows the cell count under both, and TestItemIndexMaskFootprint bounds
// it.)
func TestItemIndexBytesPerKey(t *testing.T) {
	var x ItemIndex
	old := 0
	for i := 0; i < 1<<16; i++ {
		if (i+1)*4 > old*3 {
			old = max(2*old, minIndexCells)
		}
		x.Set(AttrItem(OID(i/NumAttrs), AttrID(i%NumAttrs)).Key(), int32(i))
		if got, was := 8*cap(x.cells), 12*old; got > was {
			t.Fatalf("%d keys: %d table bytes, %d before (%.1f per key, was %.1f)",
				x.Len(), got, was, float64(got)/float64(x.Len()), float64(was)/float64(x.Len()))
		}
	}
}

// TestItemIndexSlotRange: a cell holds slots 0..MaxIndexSlot and keys below
// MaxIndexKey exactly; Set panics on a slot or key it cannot hold instead
// of truncating it.
func TestItemIndexSlotRange(t *testing.T) {
	var x ItemIndex
	top := ObjectItem(math.MaxUint32).Key()
	x.Set(top, MaxIndexSlot)
	x.Set(0, 0)
	if s, ok := x.Get(top); !ok || s != MaxIndexSlot {
		t.Fatalf("Get(top) = %d,%v, want %d", s, ok, MaxIndexSlot)
	}
	if s, ok := x.Get(0); !ok || s != 0 {
		t.Fatalf("Get(0) = %d,%v", s, ok)
	}
	for _, c := range []struct {
		key  uint64
		slot int32
	}{{1, MaxIndexSlot + 1}, {2, -1}, {MaxIndexKey, 0}, {math.MaxUint64, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%#x, %d) did not panic", c.key, c.slot)
				}
			}()
			x.Set(c.key, c.slot)
		}()
	}
	if x.Len() != 2 {
		t.Fatalf("Len = %d after refused Sets, want 2", x.Len())
	}
}

// TestItemIndexZeroValueAndReset: the zero index answers reads, and Reset
// keeps the table it grew.
func TestItemIndexZeroValueAndReset(t *testing.T) {
	var x ItemIndex
	if _, ok := x.Get(1); ok {
		t.Fatal("Get on the zero index found a key")
	}
	if _, ok := x.Delete(1); ok || x.Len() != 0 {
		t.Fatal("Delete on the zero index removed a key")
	}
	x.Reset()
	for k := uint64(0); k < 100; k++ {
		x.Set(k, int32(k))
	}
	cells := len(x.cells)
	x.Reset()
	if x.Len() != 0 || len(x.cells) != cells {
		t.Fatalf("after Reset: Len %d, %d cells (had %d)", x.Len(), len(x.cells), cells)
	}
	if _, ok := x.Get(5); ok {
		t.Fatal("key survived Reset")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for k := uint64(0); k < 100; k++ {
			x.Set(k, 0)
		}
		x.Reset()
	}); allocs != 0 {
		t.Fatalf("refilling a Reset index allocates %v times", allocs)
	}
}

// FuzzItemIndex replays a byte stream as index operations against the map
// model: two bytes an operation, the first picking Set/Delete/Get (or
// Reset, rarely), the second a key out of 256; after each the whole
// universe's mask bits must match the map. The small universe keeps
// chains long and tables small, so wraps and mid-chain growth are common.
func FuzzItemIndex(f *testing.F) {
	universe := indexUniverse(256)
	pos := map[Item]byte{}
	for i, it := range universe {
		pos[it] = byte(i)
	}
	const opSet, opDelete, opGet, opReset = 0, 1, 2, 3
	seed := func(ops ...[2]byte) {
		var b []byte
		for _, op := range ops {
			b = append(b, op[0], op[1])
		}
		f.Add(b)
	}
	// A chain wrapping the end of the 8-cell table, deleted from the head.
	var wrap [][2]byte
	for _, it := range keysHomedAt(f, 7, 4) {
		if p, ok := pos[it]; ok {
			wrap = append(wrap, [2]byte{opSet, p})
		}
	}
	if len(wrap) > 0 {
		seed(append(wrap, [2]byte{opDelete, wrap[0][1]}, [2]byte{opGet, wrap[len(wrap)-1][1]})...)
	}
	// Growth in the middle of a run of sets, then deletes in set order.
	var grow [][2]byte
	for p := byte(0); p < 40; p++ {
		grow = append(grow, [2]byte{opSet, p})
	}
	for p := byte(0); p < 40; p++ {
		grow = append(grow, [2]byte{opDelete, p})
	}
	seed(grow...)
	// Attribute 0 next to the whole object; OID 0 and MaxUint32.
	seed([2]byte{opSet, pos[AttrItem(0, 0)]}, [2]byte{opSet, pos[ObjectItem(0)]},
		[2]byte{opSet, pos[ObjectItem(math.MaxUint32)]}, [2]byte{opDelete, pos[AttrItem(0, 0)]},
		[2]byte{opReset, 0}, [2]byte{opGet, pos[ObjectItem(0)]})

	f.Fuzz(func(t *testing.T, data []byte) {
		m := &indexModel{t: t, model: map[Item]int32{}, universe: universe}
		for i := 0; i+1 < len(data); i += 2 {
			it := universe[data[i+1]]
			switch data[i] % 4 {
			case opSet:
				m.set(it, int32(i))
			case opDelete:
				m.delete(it)
			case opGet:
				m.get(it)
			case opReset:
				if data[i+1] == 0 {
					m.reset()
				} else {
					m.get(it)
				}
			}
			m.checkMask(universe)
		}
		m.checkAll(universe)
	})
}

// BenchmarkItemIndexChurn is the cache's steady state in one table: over
// 3200 resident items (a paper-size HC cache), look a resident up, delete
// it, and insert a new item — against the two Go maps it replaced or could
// have been replaced by. index-miss is the common probe under the paper's
// invalidation schemes, an item the client does not hold, which the
// presence mask answers without hashing.
func BenchmarkItemIndexChurn(b *testing.B) {
	const resident = 3200
	item := func(i int) Item { return AttrItem(OID(i/NumAttrs), AttrID(i%NumAttrs)) }
	b.Run("index-miss", func(b *testing.B) {
		// Sixteen tables, as many clients' caches, each holding the even
		// attributes of objects 0..objects-1. Each op looks up, in the next
		// table, an odd attribute of a resident object and an attribute of
		// an object past them, in an order that defeats prefetching: the
		// keys arrays then miss the CPU caches, as they do in a simulation.
		const tables, half, probes = 16, NumAttrs / 2, 4096
		const objects = (resident + half - 1) / half
		x := make([]ItemIndex, tables)
		for t := range x {
			for i := 0; i < resident; i++ {
				x[t].Set(AttrItem(OID(i/half), AttrID(2*(i%half))).Key(), int32(i))
			}
		}
		var keys [2 * probes]uint64
		for i := 0; i < probes; i++ {
			r := i * 7919
			keys[2*i] = AttrItem(OID(r%objects), AttrID(2*(r%half)+1)).Key()
			keys[2*i+1] = AttrItem(OID(objects+r%(DefaultNumObjects-objects)), AttrID(r%NumAttrs)).Key()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t, k := &x[i%tables], 2*(i%probes)
			_, hit := t.Get(keys[k])
			_, hit2 := t.Get(keys[k+1])
			if hit || hit2 {
				b.Fatalf("op %d found an absent item", i)
			}
		}
	})
	b.Run("index", func(b *testing.B) {
		var x ItemIndex
		for i := 0; i < resident; i++ {
			x.Set(item(i).Key(), int32(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			old := item(i).Key()
			slot, _ := x.Get(old)
			x.Delete(old)
			x.Set(item(i+resident).Key(), slot)
		}
	})
	b.Run("map-item", func(b *testing.B) {
		x := map[Item]int32{}
		for i := 0; i < resident; i++ {
			x[item(i)] = int32(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			old := item(i)
			slot := x[old]
			delete(x, old)
			x[item(i+resident)] = slot
		}
	})
	b.Run("map-uint64", func(b *testing.B) {
		x := map[uint64]int32{}
		for i := 0; i < resident; i++ {
			x[item(i).Key()] = int32(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			old := item(i).Key()
			slot := x[old]
			delete(x, old)
			x[item(i+resident).Key()] = slot
		}
	})
}
