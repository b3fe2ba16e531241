package replacement

import (
	"testing"
	"testing/quick"

	"repro/internal/oodb"
	"repro/internal/rng"
)

func seqOf(ids ...int) []oodb.Item {
	out := make([]oodb.Item, len(ids))
	for i, id := range ids {
		out[i] = obj(id)
	}
	return out
}

func TestOptimalKnownSequence(t *testing.T) {
	// Classic textbook example: 1 2 3 4 1 2 5 1 2 3 4 5 with capacity 3
	// gives 7 misses (5 hits) under Belady's MIN.
	seq := seqOf(1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5)
	hits, misses := OptimalHits(seq, 3)
	if hits != 5 || misses != 7 {
		t.Fatalf("hits/misses = %d/%d, want 5/7", hits, misses)
	}
}

func TestOptimalAllFit(t *testing.T) {
	seq := seqOf(1, 2, 3, 1, 2, 3, 1, 2, 3)
	hits, misses := OptimalHits(seq, 3)
	if misses != 3 || hits != 6 {
		t.Fatalf("hits/misses = %d/%d (only cold misses expected)", hits, misses)
	}
}

func TestOptimalLoopBeatsLRUHorizon(t *testing.T) {
	// A loop of 4 items with capacity 3: LRU gets zero hits, MIN keeps a
	// stable subset and hits on it.
	var seq []oodb.Item
	for rev := 0; rev < 20; rev++ {
		for i := 0; i < 4; i++ {
			seq = append(seq, obj(i))
		}
	}
	optHits, _ := OptimalHits(seq, 3)
	lruHits, _ := ReplayHits(NewLRU(), seq, 3)
	if lruHits != 0 {
		t.Fatalf("LRU on a loop of capacity+1 items got %d hits", lruHits)
	}
	if optHits == 0 {
		t.Fatal("MIN got no hits on a loop")
	}
	// MRU shines on loops — it should land between LRU and MIN.
	mruHits, _ := ReplayHits(NewMRU(), seq, 3)
	if mruHits <= lruHits {
		t.Fatalf("MRU (%d) not above LRU (%d) on a loop", mruHits, lruHits)
	}
	if mruHits > optHits {
		t.Fatalf("MRU (%d) beat the clairvoyant bound (%d)", mruHits, optHits)
	}
}

func TestOptimalHitRatio(t *testing.T) {
	if r := OptimalHitRatio(nil, 3); r != 0 {
		t.Fatalf("empty ratio %v", r)
	}
	seq := seqOf(1, 1, 1, 1)
	if r := OptimalHitRatio(seq, 1); r != 0.75 {
		t.Fatalf("ratio %v, want 0.75", r)
	}
}

func TestOptimalValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("OptimalHits capacity 0 did not panic")
			}
		}()
		OptimalHits(seqOf(1), 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ReplayHits capacity 0 did not panic")
			}
		}()
		ReplayHits(NewLRU(), seqOf(1), 0)
	}()
}

// Property: no online policy ever beats Belady's MIN, and hit+miss counts
// always sum to the sequence length.
func TestQuickOptimalDominates(t *testing.T) {
	factories := parseAll(t, "lru", "lru-2", "mean", "ewma-0.5", "fifo", "mru", "lrd", "win-4")
	f := func(seed uint64, capRaw, lenRaw uint8) bool {
		capacity := int(capRaw)%6 + 1
		length := int(lenRaw)%120 + 10
		r := rng.New(seed)
		seq := make([]oodb.Item, length)
		for i := range seq {
			seq[i] = obj(r.Intn(12))
		}
		optHits, optMisses := OptimalHits(seq, capacity)
		if optHits+optMisses != length {
			return false
		}
		for _, factory := range factories {
			hits, misses := ReplayHits(factory(), seq, capacity)
			if hits+misses != length {
				return false
			}
			if hits > optHits {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOptimal(b *testing.B) {
	r := rng.New(1)
	seq := make([]oodb.Item, 100000)
	for i := range seq {
		seq[i] = obj(r.Intn(2000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OptimalHits(seq, 400)
	}
}

// OptimalHitRatio returns hits/len(seq) for Belady's MIN (0 for an empty
// sequence).
func OptimalHitRatio(seq []oodb.Item, capacity int) float64 {
	if len(seq) == 0 {
		return 0
	}
	hits, _ := OptimalHits(seq, capacity)
	return float64(hits) / float64(len(seq))
}

// ReplayHits runs an online policy over the same reference model used by
// OptimalHits — an item-count cache fed one reference at a time — so a
// policy's raw ranking quality can be compared against the clairvoyant
// bound without the full simulator. Timestamps advance one unit per
// reference.
func ReplayHits(p Policy, seq []oodb.Item, capacity int) (hits, misses int) {
	if capacity < 1 {
		panic("replacement: ReplayHits requires capacity >= 1")
	}
	resident := make(map[oodb.Item]bool, capacity)
	for i, it := range seq {
		now := float64(i)
		if resident[it] {
			hits++
			p.OnAccess(it, now)
			continue
		}
		misses++
		if len(resident) == capacity {
			v, ok := p.Victim(now)
			if !ok {
				panic("replacement: policy offered no victim at capacity")
			}
			p.Remove(v)
			delete(resident, v)
		}
		p.OnInsert(it, now)
		resident[it] = true
	}
	return hits, misses
}
