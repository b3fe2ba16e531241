package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/oodb"
	"repro/internal/replacement"
)

// drainLRU returns l's entries from least to most recently used, with their
// values, by putting capacity new keys (object ids from base up) and
// collecting what each put evicts. It consumes l.
func drainLRU(l *buffer.LRU[oodb.Item, Entry], base int) []BatchEntry {
	var out []BatchEntry
	for i := 0; i < l.Capacity(); i++ {
		if k, v, ok := l.Put(obj(base+i), Entry{}); ok {
			out = append(out, BatchEntry{Item: k, Entry: v})
		}
	}
	return out
}

// TestCommitMatchesPerItemPut is the memory buffer's twin test: a
// hierarchy installing staged replies through Stage and Commit against a
// bare buffer.LRU taking one Put per consumed item in staging order, over
// seeded tapes. Replies run up to three buffers long, repeat items,
// mark some storageOnly, and run under NC (no storage level) as well as
// AC and OC. After every reply both buffers must hold the same items with
// the same values, and neither may have counted a hit or a miss; at the end
// of a tape draining both must give the same recency order.
func TestCommitMatchesPerItemPut(t *testing.T) {
	for _, g := range []Granularity{NoCache, AttributeCaching, ObjectCaching} {
		for seed := int64(1); seed <= 40; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			memObjects := 1 + rnd.Intn(4)
			h := NewHierarchy(g, (1+rnd.Intn(8))*objCost(), replacement.NewLRU(), memObjects, new(Scratch))
			ref := buffer.NewLRU[oodb.Item, Entry](h.mem.Capacity())
			objects := 1 + rnd.Intn(3*memObjects)
			item := func() oodb.Item {
				if g.UsesAttributeItems() {
					return attr(rnd.Intn(objects), rnd.Intn(oodb.NumAttrs))
				}
				return obj(rnd.Intn(objects))
			}
			now := 0.0
			for reply := 0; reply < 30; reply++ {
				now++
				for n := rnd.Intn(3*h.mem.Capacity() + 2); n > 0; n-- {
					it, e := item(), leased(now+float64(rnd.Intn(50)))
					storageOnly := rnd.Intn(4) == 0
					h.Stage(it, e, storageOnly)
					if !storageOnly {
						ref.Put(it, e)
					}
				}
				h.Commit(now)
				what := fmt.Sprintf("%v seed %d reply %d", g, seed, reply)
				for o := 0; o < objects; o++ {
					for a := 0; a <= oodb.NumAttrs; a++ {
						it := attr(o, a)
						if a == oodb.NumAttrs {
							it = obj(o)
						}
						got, gok := h.mem.Peek(it)
						want, wok := ref.Peek(it)
						if gok != wok || got != want {
							t.Fatalf("%s: buffer holds %v = %+v,%v; per-item puts %+v,%v", what, it, got, gok, want, wok)
						}
					}
				}
				if h.mem.HitRatio() != 0 || ref.HitRatio() != 0 {
					t.Fatalf("%s: an install counted a buffer hit", what)
				}
			}
			got, want := drainLRU(h.mem, 1_000_000), drainLRU(ref, 1_000_000)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v seed %d: recency order %v; per-item puts %v", g, seed, got, want)
			}
		}
	}
}

// rankCounter counts the victims a slot core ranks for its cache.
type rankCounter struct {
	replacement.SlotCore
	ranked int
}

func (r *rankCounter) Victim(now float64) (int32, bool) {
	v, ok := r.SlotCore.Victim(now)
	if ok {
		r.ranked++
	}
	return v, ok
}

func (r *rankCounter) Victims(now float64, n int) []int32 {
	v := r.SlotCore.Victims(now, n)
	r.ranked += len(v)
	return v
}

// TestRankedVictimsAreEvicted pins the victims an indexed policy ranks per
// victim InsertBatch evicts at 1.0, on caches shaped like sim_paper's (a
// 400-object budget of attributes, short replies over 2 000 objects) and
// sim_fleet's (a 10-object budget, 56-item replies over 500 objects). It
// logs what the request every core used to get, over/AttrSize + 1, would
// have ranked on the same installs: about 1.6 per eviction.
func TestRankedVictimsAreEvicted(t *testing.T) {
	shapes := []struct {
		name             string
		budget, objects  int
		minReply, spread int
	}{
		{"sim_paper", 400, 2000, 4, 40},
		{"sim_fleet", 10, 500, 40, 30},
	}
	for _, spec := range []string{"lru", "mru", "fifo", "lru-3", "lrd", "mean", "win-10", "ewma-0.5"} {
		for _, sh := range shapes {
			factory, err := replacement.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			c := NewCache(sh.budget*oodb.ObjectSize, factory())
			rc := &rankCounter{SlotCore: c.policy}
			c.policy = rc
			rnd := rand.New(rand.NewSource(7))
			legacy, now := 0, 0.0
			batch := make([]BatchEntry, 0, sh.minReply+sh.spread)
			for reply := 0; reply < 4000; reply++ {
				now += rnd.ExpFloat64()
				for l := rnd.Intn(8); l > 0; l-- {
					c.Lookup(attr(rnd.Intn(sh.objects), rnd.Intn(oodb.NumAttrs)), now)
				}
				batch = batch[:0]
				incoming := 0
				for n := sh.minReply + rnd.Intn(sh.spread); n > 0; n-- {
					it := attr(rnd.Intn(sh.objects), rnd.Intn(oodb.NumAttrs))
					if !c.Contains(it) && !batchHolds(batch, it) {
						incoming += ItemCost(it)
					}
					batch = append(batch, BatchEntry{Item: it, Entry: fresh(now)})
				}
				if over := c.UsedBytes() + incoming - c.CapacityBytes(); over > 0 {
					legacy += min(over/oodb.AttrSize+1, 1024, c.Len())
				}
				c.InsertBatch(batch, now)
			}
			if c.Evictions() == 0 {
				t.Fatalf("%s/%s: no evictions", spec, sh.name)
			}
			perEvicted := float64(rc.ranked) / float64(c.Evictions())
			t.Logf("%s/%s: %d evictions, %.3f ranked per eviction (the old request: %.3f)",
				spec, sh.name, c.Evictions(), perEvicted, float64(legacy)/float64(c.Evictions()))
			if rc.ranked != int(c.Evictions()) {
				t.Errorf("%s/%s: ranked %d victims for %d evictions", spec, sh.name, rc.ranked, c.Evictions())
			}
		}
	}
}

func batchHolds(batch []BatchEntry, it oodb.Item) bool {
	for _, b := range batch {
		if b.Item == it {
			return true
		}
	}
	return false
}

// BenchmarkHierarchyCommit installs one staged 56-item reply of new
// attributes into a full hierarchy: sim_fleet's thin client (a 10-object
// storage budget, a 4-object buffer) and a paper-size one (400 objects,
// a 30-object buffer), under ewma-0.5.
func BenchmarkHierarchyCommit(b *testing.B) {
	for _, shape := range []struct{ storage, mem int }{{10, 4}, {400, 30}} {
		b.Run(fmt.Sprint(shape.storage), func(b *testing.B) {
			h := NewHierarchy(AttributeCaching, shape.storage*oodb.ObjectSize, replacement.NewEWMA(0.5), shape.mem, new(Scratch))
			next, now := 0, 0.0
			install := func() {
				now++
				for i := 0; i < 56; i++ {
					h.Stage(attr(next/oodb.NumAttrs, next%oodb.NumAttrs), fresh(now), false)
					next++
				}
				h.Commit(now)
			}
			for h.Storage().Evictions() == 0 {
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
