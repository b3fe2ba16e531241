package replacement

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/oodb"
	"repro/internal/rng"
)

func obj(i int) oodb.Item { return oodb.ObjectItem(oodb.OID(i)) }

// parseAll parses policy specs, failing on a bad one.
func parseAll(tb testing.TB, specs ...string) []Factory {
	tb.Helper()
	factories := make([]Factory, len(specs))
	for i, spec := range specs {
		f, err := Parse(spec)
		if err != nil {
			tb.Fatal(err)
		}
		factories[i] = f
	}
	return factories
}

func allPolicies() []Policy {
	return []Policy{
		NewLRU(), NewLRUK(3), NewLRD(1000), NewMean(),
		NewWindow(10), NewEWMA(0.5), NewFIFO(), NewClock(),
		NewMRU(), NewRandom(rng.New(1)),
	}
}

func TestEmptyVictim(t *testing.T) {
	for _, p := range allPolicies() {
		if _, ok := p.Victim(0); ok {
			t.Errorf("%s: Victim on empty returned ok", p.Name())
		}
		if p.Len() != 0 {
			t.Errorf("%s: Len on empty = %d", p.Name(), p.Len())
		}
	}
}

func TestInsertRemoveLen(t *testing.T) {
	for _, p := range allPolicies() {
		p.OnInsert(obj(1), 0)
		p.OnInsert(obj(2), 1)
		if p.Len() != 2 {
			t.Errorf("%s: Len = %d, want 2", p.Name(), p.Len())
		}
		p.Remove(obj(1))
		if p.Len() != 1 {
			t.Errorf("%s: Len after Remove = %d, want 1", p.Name(), p.Len())
		}
		p.Remove(obj(1)) // idempotent
		if p.Len() != 1 {
			t.Errorf("%s: double Remove changed Len", p.Name())
		}
		v, ok := p.Victim(2)
		if !ok || v != obj(2) {
			t.Errorf("%s: Victim = %v,%v, want obj(2)", p.Name(), v, ok)
		}
	}
}

func TestReinsertIsAccess(t *testing.T) {
	// OnInsert on an already-tracked item must not duplicate it.
	for _, p := range allPolicies() {
		p.OnInsert(obj(1), 0)
		p.OnInsert(obj(1), 5)
		if p.Len() != 1 {
			t.Errorf("%s: reinsert duplicated item, Len=%d", p.Name(), p.Len())
		}
	}
}

func TestAccessUntrackedPanics(t *testing.T) {
	for _, p := range allPolicies() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: OnAccess on untracked item did not panic", p.Name())
				}
			}()
			p.OnAccess(obj(99), 0)
		}()
	}
}

// The access path of every policy allocates nothing: in particular it must
// not build the policy's name (a Sprintf for the parameterized ones) to hand
// to the untracked-item check.
func TestOnAccessDoesNotAllocate(t *testing.T) {
	for _, p := range allPolicies() {
		for i := 0; i < 64; i++ {
			p.OnInsert(obj(i), float64(i))
		}
		now := 64.0
		// A first pass so lazily sized state (window buffers, access rings)
		// has settled; LRU-k collapses references closer than its
		// correlated period, so step past it.
		access := func() {
			for i := 0; i < 64; i++ {
				now += 2 * DefaultCorrelatedPeriod
				p.OnAccess(obj(i), now)
			}
		}
		for i := 0; i < 12; i++ {
			access()
		}
		if allocs := testing.AllocsPerRun(20, access); allocs != 0 {
			t.Errorf("%s: 64 OnAccess calls allocate %v times", p.Name(), allocs)
		}
	}
}

func TestLRUVictim(t *testing.T) {
	p := NewLRU()
	p.OnInsert(obj(1), 0)
	p.OnInsert(obj(2), 1)
	p.OnInsert(obj(3), 2)
	p.OnAccess(obj(1), 3) // 1 becomes MRU; LRU order: 2,3,1
	v, _ := p.Victim(4)
	if v != obj(2) {
		t.Fatalf("LRU victim = %v, want obj(2)", v)
	}
}

func TestLRUKPrefersShortHistory(t *testing.T) {
	p := newLRUK(2, 0)
	// obj(1): accesses at 0,1,2 -> 2nd most recent = 1
	p.OnInsert(obj(1), 0)
	p.OnAccess(obj(1), 1)
	p.OnAccess(obj(1), 2)
	// obj(2): single access at 3 -> infinite backward 2-distance
	p.OnInsert(obj(2), 3)
	v, _ := p.Victim(4)
	if v != obj(2) {
		t.Fatalf("LRU-2 victim = %v, want obj(2) (infinite k-distance)", v)
	}
}

func TestLRUKUsesKthAccess(t *testing.T) {
	p := newLRUK(2, 0)
	// Both have >= 2 accesses. obj(1) kth (2nd last) = 0; obj(2) kth = 5.
	p.OnInsert(obj(1), 0)
	p.OnAccess(obj(1), 10) // recent last access, but old 2nd-last
	p.OnInsert(obj(2), 5)
	p.OnAccess(obj(2), 6)
	v, _ := p.Victim(11)
	if v != obj(1) {
		t.Fatalf("LRU-2 victim = %v, want obj(1)", v)
	}
	// Plain LRU would instead evict obj(2) (older last access).
	q := NewLRU()
	q.OnInsert(obj(1), 0)
	q.OnAccess(obj(1), 10)
	q.OnInsert(obj(2), 5)
	q.OnAccess(obj(2), 6)
	vq, _ := q.Victim(11)
	if vq != obj(2) {
		t.Fatalf("LRU victim = %v, want obj(2)", vq)
	}
}

func TestLRUKInfiniteTieBreak(t *testing.T) {
	p := newLRUK(3, 0)
	p.OnInsert(obj(1), 0) // last access 0
	p.OnInsert(obj(2), 5) // last access 5
	v, _ := p.Victim(6)
	if v != obj(1) {
		t.Fatalf("victim = %v, want obj(1) (older last access)", v)
	}
}

func TestLRUKValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewLRUK(0) did not panic")
			}
		}()
		NewLRUK(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative CRP did not panic")
			}
		}()
		newLRUK(2, -1)
	}()
}

func TestLRUKCorrelatedReferencesCollapse(t *testing.T) {
	pol := newLRUK(2, 100)
	p := coreOf(pol).(*lruK)
	pol.OnInsert(obj(1), 0)
	pol.OnAccess(obj(1), 10) // correlated: within 100s of the last access
	idx, _ := p.history.Get(obj(1).Key())
	s := &p.arena[idx]
	if s.ring.n != 1 {
		t.Fatalf("correlated access pushed a reference: n=%d", s.ring.n)
	}
	pol.OnAccess(obj(1), 200) // uncorrelated
	if s.ring.n != 2 {
		t.Fatalf("uncorrelated access not recorded: n=%d", s.ring.n)
	}
}

func TestLRUKCRPProtectsRecent(t *testing.T) {
	p := newLRUK(2, 100)
	p.OnInsert(obj(1), 0)   // singleton, but old (unprotected at t=500)
	p.OnInsert(obj(2), 450) // singleton, recent (protected at t=500)
	v, _ := p.Victim(500)
	if v != obj(1) {
		t.Fatalf("victim = %v, want the unprotected obj(1)", v)
	}
}

func TestLRUKRetainedHistory(t *testing.T) {
	p := newLRUK(2, 0)
	// obj(1) earns two references, is evicted, and returns: its k-distance
	// must be finite immediately (retained history).
	p.OnInsert(obj(1), 0)
	p.OnAccess(obj(1), 10)
	p.Remove(obj(1))
	p.OnInsert(obj(1), 20)
	p.OnInsert(obj(2), 21) // fresh singleton: infinite distance
	v, _ := p.Victim(30)
	if v != obj(2) {
		t.Fatalf("victim = %v, want obj(2) (obj(1) has retained history)", v)
	}
}

func TestLRDPrefersLowDensity(t *testing.T) {
	p := NewLRD(1000)
	p.OnInsert(obj(1), 0)
	for i := 1; i <= 9; i++ {
		p.OnAccess(obj(1), float64(i)) // 10 refs by t=9
	}
	p.OnInsert(obj(2), 0) // 1 ref over the same age
	v, _ := p.Victim(10)
	if v != obj(2) {
		t.Fatalf("LRD victim = %v, want obj(2)", v)
	}
}

func TestLRDAgingHalvesCounts(t *testing.T) {
	p := NewLRD(100)
	// obj(1): heavily referenced early, then idle.
	p.OnInsert(obj(1), 0)
	for i := 0; i < 63; i++ {
		p.OnAccess(obj(1), 1)
	}
	// obj(2): two recent references.
	p.OnInsert(obj(2), 0)
	p.OnAccess(obj(2), 990)
	// By t=1000, obj(1)'s 64 refs have been halved 10 times -> 0.0625;
	// density 0.0625/1000 < obj(2)'s ~0.002.
	v, _ := p.Victim(1000)
	if v != obj(1) {
		t.Fatalf("LRD victim after aging = %v, want obj(1)", v)
	}
}

func TestLRDValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLRD(0) did not panic")
		}
	}()
	NewLRD(0)
}

func TestMeanScore(t *testing.T) {
	p := NewMean()
	// obj(1): regular accesses every 1s -> mean 1.
	p.OnInsert(obj(1), 0)
	for i := 1; i <= 5; i++ {
		p.OnAccess(obj(1), float64(i))
	}
	// obj(2): accesses every 10s -> mean 10.
	p.OnInsert(obj(2), 0)
	p.OnAccess(obj(2), 10)
	v, _ := p.Victim(11)
	if v != obj(2) {
		t.Fatalf("Mean victim = %v, want obj(2)", v)
	}
}

func TestMeanDragsHistory(t *testing.T) {
	// After a hot->cold transition, Mean keeps the stale-hot item longer
	// than EWMA does: the defining difference in Experiment #2.
	build := func(p Policy) {
		p.OnInsert(obj(1), 0)
		for i := 1; i <= 100; i++ {
			p.OnAccess(obj(1), float64(i)) // hot: d=1 x100
		}
		p.OnInsert(obj(2), 100)
		p.OnAccess(obj(2), 140) // newcomer with one 40s gap
	}
	m := NewMean()
	build(m)
	e := NewEWMA(0.5)
	build(e)
	// At t=150: obj(1) idle for 50s.
	vm, _ := m.Victim(150)
	ve, _ := e.Victim(150)
	if vm != obj(2) {
		t.Fatalf("Mean victim = %v, want obj(2) (history drag)", vm)
	}
	if ve != obj(1) {
		t.Fatalf("EWMA victim = %v, want obj(1) (fast adaptation)", ve)
	}
}

func TestWindowForgets(t *testing.T) {
	p := NewWindow(2)
	// obj(1): long-ago dense accesses, then idle.
	p.OnInsert(obj(1), 0)
	p.OnAccess(obj(1), 1)
	p.OnAccess(obj(1), 2)
	// obj(2): steady 5s cadence.
	p.OnInsert(obj(2), 0)
	p.OnAccess(obj(2), 5)
	p.OnAccess(obj(2), 10)
	// At t=30, obj(1)'s window blends in a 28s open interval -> colder.
	v, _ := p.Victim(30)
	if v != obj(1) {
		t.Fatalf("Window victim = %v, want obj(1)", v)
	}
}

func TestWindowValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWindow(0) did not panic")
		}
	}()
	NewWindow(0)
}

func TestEWMAValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEWMA(1) did not panic")
		}
	}()
	NewEWMA(1)
}

func TestFIFOIgnoresAccesses(t *testing.T) {
	p := NewFIFO()
	p.OnInsert(obj(1), 0)
	p.OnInsert(obj(2), 1)
	p.OnAccess(obj(1), 100) // must not save obj(1)
	v, _ := p.Victim(101)
	if v != obj(1) {
		t.Fatalf("FIFO victim = %v, want obj(1)", v)
	}
}

func TestClockSecondChance(t *testing.T) {
	p := NewClock()
	p.OnInsert(obj(1), 0)
	p.OnInsert(obj(2), 0)
	p.OnInsert(obj(3), 0)
	// First victim pass clears all bits then wraps to obj(1).
	v, ok := p.Victim(1)
	if !ok || v != obj(1) {
		t.Fatalf("first victim = %v, want obj(1)", v)
	}
	p.Remove(v)
	// Re-reference obj(2): it gets a second chance; obj(3) goes next.
	p.OnAccess(obj(2), 2)
	v2, _ := p.Victim(3)
	if v2 != obj(2) && v2 != obj(3) {
		t.Fatalf("second victim = %v", v2)
	}
	// Whichever it returned, it must not be referenced since the sweep:
	// after clearing, a referenced obj(2) should survive one extra pass.
	if v2 == obj(2) {
		t.Fatalf("CLOCK evicted recently referenced obj(2)")
	}
}

func TestRandomVictimIsResident(t *testing.T) {
	p := NewRandom(rng.New(7))
	for i := 0; i < 10; i++ {
		p.OnInsert(obj(i), 0)
	}
	seen := map[oodb.Item]bool{}
	for i := 0; i < 200; i++ {
		v, ok := p.Victim(1)
		if !ok {
			t.Fatal("Victim failed")
		}
		seen[v] = true
	}
	if len(seen) < 5 {
		t.Fatalf("random victims not spread: %d distinct", len(seen))
	}
}

// TestRandomVictimOrder pins the exact victims of a seeded Random policy
// over a fixed trace of inserts, Victim and Victims calls, and removals of
// the returned items. Random has no reference twin, and its stream indexes
// resident slots, so a change to how residents are laid out (the
// swap-remove included) would reorder these victims without failing any
// residency check.
func TestRandomVictimOrder(t *testing.T) {
	p := NewRandom(rng.New(7))
	var got []oodb.OID
	next := 0
	for round := 0; round < 8; round++ {
		for i := 0; i < 5; i++ {
			p.OnInsert(obj(next), float64(next))
			next++
		}
		v, _ := p.Victim(0)
		got = append(got, v.OID)
		p.Remove(v)
		for _, v := range append([]oodb.Item(nil), p.Victims(0, 3)...) {
			got = append(got, v.OID)
			p.Remove(v)
		}
	}
	want := []oodb.OID{
		4, 2, 1, 0, 6, 5, 3, 7, 11, 8, 12, 10, 13, 15, 19, 17,
		23, 22, 21, 18, 25, 20, 26, 16, 32, 28, 33, 27, 24, 30, 39, 35,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("victims = %v, want %v", got, want)
	}
}

func TestRandomValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRandom(nil) did not panic")
		}
	}()
	NewRandom(nil)
}

func TestParse(t *testing.T) {
	good := []struct{ spec, name string }{
		{"lru", "lru"},
		{"lru-3", "lru-3"},
		{"lrd", "lrd"},
		{"mean", "mean"},
		{"win-10", "win-10"},
		{"ewma-0.5", "ewma-0.5"},
		{"fifo", "fifo"},
		{"clock", "clock"},
		{"mru", "mru"},
		{"random:42", "random"},
	}
	for _, c := range good {
		f, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if got := f().Name(); got != c.name {
			t.Fatalf("Parse(%q).Name() = %q, want %q", c.spec, got, c.name)
		}
	}
	for _, bad := range []string{
		"", "lfu", "lru-0", "win-0", "ewma-1.5", "ewma-2",
		// Trailing input after the number: not a spec.
		"lru-3.5", "ewma-0.5x", "win-10abc", "random:7x", "ewma-0.5 ",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	want := map[string]bool{
		"lru": true, "lru-3": true, "lrd": true, "mean": true,
		"win-10": true, "ewma-0.5": true, "fifo": true, "clock": true,
		"mru": true, "random": true,
	}
	for _, p := range allPolicies() {
		if !want[p.Name()] {
			t.Errorf("unexpected policy name %q", p.Name())
		}
	}
}

// Property: for every policy, under arbitrary op sequences, (a) Len matches
// a reference set, (b) Victim returns a resident item, (c) Remove(victim)
// then Victim never returns the removed item.
func TestQuickPolicyInvariants(t *testing.T) {
	factories := append(
		parseAll(t, "lru", "lru-2", "mean", "win-3", "ewma-0.5", "fifo", "clock", "random:99"),
		func() Policy { return NewLRD(100) },
	)
	for _, factory := range factories {
		factory := factory
		f := func(ops []uint8) bool {
			p := factory()
			resident := map[oodb.Item]bool{}
			now := 0.0
			for _, op := range ops {
				now += float64(op%5) + 0.5
				it := obj(int(op) % 6)
				switch (op / 6) % 3 {
				case 0:
					p.OnInsert(it, now)
					resident[it] = true
				case 1:
					if resident[it] {
						p.OnAccess(it, now)
					}
				case 2:
					p.Remove(it)
					delete(resident, it)
				}
				if p.Len() != len(resident) {
					return false
				}
				if v, ok := p.Victim(now); ok != (len(resident) > 0) {
					return false
				} else if ok && !resident[v] {
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

func BenchmarkPolicyUpdate(b *testing.B) {
	for _, factory := range parseAll(b, "lru", "lru-3", "lrd", "mean", "win-10", "ewma-0.5") {
		p := factory()
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < 400; i++ {
				p.OnInsert(obj(i), float64(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.OnAccess(obj(i%400), float64(400+i))
			}
		})
	}
}

func BenchmarkPolicyVictim(b *testing.B) {
	for _, factory := range parseAll(b, "lru", "lru-3", "lrd", "mean", "win-10", "ewma-0.5") {
		p := factory()
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < 400; i++ {
				p.OnInsert(obj(i), float64(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Victim(float64(401 + i))
			}
		})
	}
}

func TestVictimsWorstFirst(t *testing.T) {
	// For every scan-based policy, Victims(n) must list candidates in the
	// exact order repeated Victim+Remove would evict them (distinct access
	// times, so no ties).
	factories := append(
		parseAll(t, "lru", "mean", "win-3", "ewma-0.5", "fifo"),
		func() Policy { return newLRUK(2, 0) },
		// A long LRD interval keeps reference counts un-decayed (and
		// therefore distinct) over this test's timeline.
		func() Policy { return NewLRD(1e9) },
	)
	for _, factory := range factories {
		p := factory()
		q := factory()
		now := 0.0
		for i := 0; i < 12; i++ {
			at := float64(i) * 50000
			p.OnInsert(obj(i), at)
			q.OnInsert(obj(i), at)
			// Give item i exactly i extra accesses with an item-specific
			// inter-access gap, so every policy's score is unique (no
			// tie-break ambiguity): distinct counts, distinct last-access
			// times, and distinct mean durations.
			gap := 300 * float64(i+1)
			for j := 0; j < i; j++ {
				ta := at + gap*float64(j+1)
				p.OnAccess(obj(i), ta)
				q.OnAccess(obj(i), ta)
			}
			now = at + gap*float64(i) + 1
		}
		now += 10000
		batch := p.Victims(now, 5)
		if len(batch) != 5 {
			t.Fatalf("%s: Victims returned %d items", p.Name(), len(batch))
		}
		for i, want := range batch {
			got, ok := q.Victim(now)
			if !ok {
				t.Fatalf("%s: reference Victim failed at %d", q.Name(), i)
			}
			if got != want {
				t.Fatalf("%s: victim %d = %v, reference %v", p.Name(), i, want, got)
			}
			q.Remove(got)
		}
	}
}

func TestVictimsClamping(t *testing.T) {
	for _, p := range allPolicies() {
		p.OnInsert(obj(1), 0)
		p.OnInsert(obj(2), 1)
		if vs := p.Victims(10, 99); len(vs) != 2 {
			t.Errorf("%s: Victims(99) on 2 items = %d", p.Name(), len(vs))
		}
		if vs := p.Victims(10, 0); len(vs) != 0 {
			t.Errorf("%s: Victims(0) = %d items", p.Name(), len(vs))
		}
		if vs := p.Victims(10, 1); len(vs) != 1 {
			t.Errorf("%s: Victims(1) = %d items", p.Name(), len(vs))
		}
	}
}

func TestVictimsDistinct(t *testing.T) {
	for _, p := range allPolicies() {
		for i := 0; i < 20; i++ {
			p.OnInsert(obj(i), float64(i))
		}
		vs := p.Victims(100, 10)
		seen := map[oodb.Item]bool{}
		for _, v := range vs {
			if seen[v] {
				t.Errorf("%s: duplicate victim %v", p.Name(), v)
			}
			seen[v] = true
		}
	}
}

func TestVictimsEmpty(t *testing.T) {
	for _, p := range allPolicies() {
		if vs := p.Victims(0, 4); len(vs) != 0 {
			t.Errorf("%s: Victims on empty = %v", p.Name(), vs)
		}
	}
}

func TestMRUEvictsNewest(t *testing.T) {
	p := NewMRU()
	p.OnInsert(obj(1), 0)
	p.OnInsert(obj(2), 5)
	p.OnAccess(obj(1), 10) // obj(1) is now the most recently used
	v, _ := p.Victim(11)
	if v != obj(1) {
		t.Fatalf("MRU victim = %v, want obj(1)", v)
	}
}
