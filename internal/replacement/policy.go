// Package replacement implements the cache replacement policies evaluated
// in §3.3 and §5 of the paper.
//
// The paper's proposed policies score each cached item by statistics over
// its access inter-arrival durations — Mean, Window(W), and EWMA(α) — and
// replace the item with the *highest* mean arrival duration (i.e. the
// coldest item). They are compared against the conventional LRU, LRU-k and
// LRD policies. FIFO, Random and CLOCK are included as additional classical
// baselines from the surveyed literature ([5] in the paper).
//
// Scoring note: a duration-based score only changes when an item is
// accessed, so an item that is never touched again would keep its hot
// historical score forever. Following the natural reading of §3.3, eviction
// therefore evaluates an *effective* duration that folds in the still-open
// interval (now − last access): an abandoned item's effective inter-arrival
// duration grows without bound and it eventually becomes the victim. The
// weight of history still differs exactly as the paper describes — the Mean
// scheme drags its full history (and adapts poorly to hot-spot changes),
// Window forgets after W accesses, and EWMA decays geometrically.
//
// Determinism: victim selection scans items in a deterministic order and
// breaks ties by scan position, so simulations replay identically.
package replacement

import (
	"fmt"

	"repro/internal/oodb"
	"repro/internal/rng"
)

// Policy ranks the items resident in a client's storage cache and selects
// eviction victims. Implementations are not safe for concurrent use; the
// simulator runs one process at a time.
type Policy interface {
	// Name identifies the policy (e.g. "ewma-0.5") in tables and logs.
	Name() string
	// OnInsert registers a newly cached item; now is the insertion time,
	// which also counts as the item's first access. Calling OnInsert on an
	// already-tracked item records an access instead.
	OnInsert(it oodb.Item, now float64)
	// OnAccess records a cache hit on a resident item.
	OnAccess(it oodb.Item, now float64)
	// Victim returns the item that should be evicted next, without
	// removing it. ok is false when no items are tracked.
	Victim(now float64) (it oodb.Item, ok bool)
	// Victims returns up to n eviction candidates ordered worst-first,
	// without removing them. A single call costs one scan, so callers that
	// must free room for a whole batch of insertions should prefer it over
	// n calls to Victim. The slice is policy-owned scratch, valid until the
	// next mutating call; Remove alone leaves it intact, so a caller may
	// evict the returned items while ranging over them.
	Victims(now float64, n int) []oodb.Item
	// Remove forgets an item (eviction or invalidation).
	Remove(it oodb.Item)
	// Len returns the number of tracked items.
	Len() int
}

// Factory builds a fresh policy instance; each simulated client owns one.
type Factory func() Policy

// scanCore is the shared skeleton for policies that pick victims by
// maximizing a per-item "badness" score over a deterministic scan. Item
// state lives in a slice parallel to the item list so the scan performs no
// map lookups.
type scanCore[S any] struct {
	items  []oodb.Item
	states []*S
	index  map[oodb.Item]int
	// badness scores an item for eviction at time now (higher = evict
	// sooner). It must not mutate shared state other than lazily aging s.
	badness func(s *S, now float64) float64
}

func newScanCore[S any](badness func(s *S, now float64) float64) scanCore[S] {
	return scanCore[S]{index: make(map[oodb.Item]int), badness: badness}
}

// get returns the state for a tracked item.
func (c *scanCore[S]) get(it oodb.Item) (*S, bool) {
	i, ok := c.index[it]
	if !ok {
		return nil, false
	}
	return c.states[i], true
}

// add tracks a new item with the given state; returns false if already
// tracked.
func (c *scanCore[S]) add(it oodb.Item, s *S) bool {
	if _, ok := c.index[it]; ok {
		return false
	}
	c.index[it] = len(c.items)
	c.items = append(c.items, it)
	c.states = append(c.states, s)
	return true
}

// remove untracks an item (swap with last slot).
func (c *scanCore[S]) remove(it oodb.Item) bool {
	i, ok := c.index[it]
	if !ok {
		return false
	}
	last := len(c.items) - 1
	c.items[i] = c.items[last]
	c.states[i] = c.states[last]
	c.index[c.items[i]] = i
	c.items = c.items[:last]
	c.states[last] = nil
	c.states = c.states[:last]
	delete(c.index, it)
	return true
}

func (c *scanCore[S]) len() int { return len(c.items) }

// victim returns the single worst item.
func (c *scanCore[S]) victim(now float64) (oodb.Item, bool) {
	if len(c.items) == 0 {
		return oodb.Item{}, false
	}
	best := 0
	bestScore := c.badness(c.states[0], now)
	for i := 1; i < len(c.items); i++ {
		if s := c.badness(c.states[i], now); s > bestScore {
			best, bestScore = i, s
		}
	}
	return c.items[best], true
}

// victims returns up to n items ordered worst-first using a single scan
// with a size-n selection heap (min-heap on badness so the heap root is the
// weakest of the current top-n).
func (c *scanCore[S]) victims(now float64, n int) []oodb.Item {
	if n <= 0 || len(c.items) == 0 {
		return nil
	}
	if n == 1 {
		it, _ := c.victim(now)
		return []oodb.Item{it}
	}
	if n > len(c.items) {
		n = len(c.items)
	}
	type cand struct {
		idx   int
		score float64
	}
	heap := make([]cand, 0, n)
	// less(i,j) for the min-heap: heap[i] weaker than heap[j]; ties keep
	// later scan positions weaker so the final ordering is deterministic.
	less := func(a, b cand) bool {
		if a.score != b.score {
			return a.score < b.score
		}
		return a.idx > b.idx
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < len(heap) && less(heap[l], heap[smallest]) {
				smallest = l
			}
			if r < len(heap) && less(heap[r], heap[smallest]) {
				smallest = r
			}
			if smallest == i {
				return
			}
			heap[i], heap[smallest] = heap[smallest], heap[i]
			i = smallest
		}
	}
	siftUp := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !less(heap[i], heap[parent]) {
				return
			}
			heap[i], heap[parent] = heap[parent], heap[i]
			i = parent
		}
	}
	for i := range c.items {
		sc := cand{idx: i, score: c.badness(c.states[i], now)}
		if len(heap) < n {
			heap = append(heap, sc)
			siftUp(len(heap) - 1)
			continue
		}
		if less(heap[0], sc) {
			heap[0] = sc
			siftDown(0)
		}
	}
	// Extract in increasing weakness, then reverse to worst-first.
	out := make([]oodb.Item, len(heap))
	for i := len(heap) - 1; i >= 0; i-- {
		out[i] = c.items[heap[0].idx]
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		siftDown(0)
	}
	return out
}

// mustTracked takes the policy, not its name: Name formats a string for the
// parameterized policies, which only the panic path should pay for.
func mustTracked(p Policy, ok bool, it oodb.Item) {
	if !ok {
		panic(fmt.Sprintf("replacement/%s: operation on untracked item %v", p.Name(), it))
	}
}

// Parse builds a Factory from a policy spec string as used by the CLI and
// experiment configs: "lru", "lru-3", "lrd", "mean", "win-10", "ewma-0.5",
// "fifo", "clock", "random:seed".
func Parse(spec string) (Factory, error) {
	var (
		k    int
		w    int
		a    float64
		seed uint64
	)
	switch {
	case spec == "lru":
		return NewLRUFactory(), nil
	case spec == "lrd":
		return NewLRDFactory(DefaultLRDInterval), nil
	case spec == "mean":
		return NewMeanFactory(), nil
	case spec == "fifo":
		return NewFIFOFactory(), nil
	case spec == "clock":
		return NewClockFactory(), nil
	case spec == "mru":
		return NewMRUFactory(), nil
	case scan1(spec, "lru-%d", &k) && k >= 1:
		return NewLRUKFactory(k), nil
	case scan1(spec, "win-%d", &w) && w >= 1:
		return NewWindowFactory(w), nil
	case scan1(spec, "ewma-%g", &a) && a >= 0 && a < 1:
		return NewEWMAFactory(a), nil
	case scan1(spec, "random:%d", &seed):
		return NewRandomFactory(seed), nil
	}
	return nil, fmt.Errorf("replacement: unknown policy spec %q", spec)
}

func scan1(s, format string, v interface{}) bool {
	n, err := fmt.Sscanf(s, format, v)
	return err == nil && n == 1
}

// NewRandomFactory returns a factory for the Random baseline. Each policy
// instance derives its own stream so clients evict independently.
func NewRandomFactory(seed uint64) Factory {
	var id uint64
	return func() Policy {
		id++
		return NewRandom(rng.Derive(seed, id))
	}
}
