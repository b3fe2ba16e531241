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
	"strconv"
	"strings"

	"repro/internal/oodb"
	"repro/internal/rng"
)

// Policy ranks the items resident in a client's storage cache and selects
// eviction victims, addressed by item. Every constructor here returns a
// SlotCore behind an item → slot table; core.Cache unwraps it with Slots
// and keeps the table itself. Implementations are not safe for concurrent
// use; the simulator runs one process at a time.
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
	// without removing them. One call selects all n in a single search, so
	// callers that must free room for a whole batch of insertions should
	// prefer it over n calls to Victim. The slice is policy-owned scratch,
	// valid until the next call other than Remove (Victim included); Remove
	// leaves it intact, so a caller may evict the returned items while
	// ranging over them.
	Victims(now float64, n int) []oodb.Item
	// Remove forgets an item (eviction or invalidation).
	Remove(it oodb.Item)
	// Len returns the number of tracked items.
	Len() int
}

// Factory builds a fresh policy instance; each simulated client owns one.
type Factory func() Policy

// SlotCore is a policy's replacement state for the residents of one cache,
// addressed by slot id. Its owner keeps the only item → slot index and
// numbers its residents 0..Len()-1 in the order it holds them: it inserts
// at slot Len() and removes by moving the last slot into the hole, and the
// core mirrors both moves, so its tie-breaks by slot follow the owner's
// order. Every policy is a slot core; core.Cache drives one directly.
type SlotCore interface {
	// Name identifies the policy (e.g. "ewma-0.5").
	Name() string
	// Insert registers a new resident at slot Len(); now is the insertion
	// time, which also counts as its first access.
	Insert(it oodb.Item, now float64)
	// Touch records an access to slot at time now.
	Touch(slot int32, now float64)
	// Victim returns the slot that should be evicted next, without removing
	// it. ok is false when there are no residents.
	Victim(now float64) (slot int32, ok bool)
	// Victims returns up to n slots ordered worst-first, selected in one
	// search, without removing them. The slice lives in the core's
	// Scratch, valid until the next Victim or Victims call on any core
	// sharing it. Every Remove moves a slot, so the owner maps the slots
	// to its items before the first.
	Victims(now float64, n int) []int32
	// Ranked reports whether Victims ranks the residents: whether
	// Victims(now, n) is always the first n of Victims(now, m) for m > n.
	// The owner of a ranked core asks for no more victims than it will
	// evict. An unranked core's choice depends on n (clock re-marks every
	// victim it returns, random draws a sample of n), so the size of its
	// owner's request is part of the policy's behaviour.
	Ranked() bool
	// Remove forgets slot and renumbers the last slot to it.
	Remove(slot int32)
	// Len returns the number of residents.
	Len() int

	// share makes s the core's search scratch and caps its per-slot
	// arrays at maxSlots residents.
	share(s *Scratch, maxSlots int)
}

// Slots returns the slot core of a policy built by this package, for an
// owner that keeps its own item → slot index; the owner takes the policy
// over, so it must track no items yet. The core searches in s, which the
// owner may share with every core it drives from the same goroutine, and
// its per-slot arrays stop growing at maxSlots, the most residents the
// owner can hold.
func Slots(p Policy, s *Scratch, maxSlots int) SlotCore {
	k, ok := p.(*keyed)
	if !ok {
		panic(fmt.Sprintf("replacement: policy %s has no slot core", p.Name()))
	}
	if len(k.items) != 0 {
		panic(fmt.Sprintf("replacement/%s: policy already tracks %d items", p.Name(), len(k.items)))
	}
	k.core.share(s, maxSlots)
	return k.core
}

// keyed is the item-keyed Policy every constructor returns: a slot core
// behind the same item → slot table a cache keeps (an oodb.ItemIndex and
// the items in slot order), with no policy logic of its own.
type keyed struct {
	core  SlotCore
	index oodb.ItemIndex
	items []oodb.Item
	out   []oodb.Item // scratch returned by Victims
}

func (p *keyed) Name() string { return p.core.Name() }

func (p *keyed) OnInsert(it oodb.Item, now float64) {
	if slot, ok := p.index.Get(it.Key()); ok {
		p.core.Touch(slot, now)
		return
	}
	p.index.Set(it.Key(), int32(len(p.items)))
	p.items = append(p.items, it)
	p.core.Insert(it, now)
}

func (p *keyed) OnAccess(it oodb.Item, now float64) {
	slot, ok := p.index.Get(it.Key())
	mustTracked(p, ok, it)
	p.core.Touch(slot, now)
}

func (p *keyed) Victim(now float64) (oodb.Item, bool) {
	slot, ok := p.core.Victim(now)
	if !ok {
		return oodb.Item{}, false
	}
	return p.items[slot], true
}

func (p *keyed) Victims(now float64, n int) []oodb.Item {
	slots := p.core.Victims(now, n)
	if len(slots) == 0 {
		return nil
	}
	p.out = p.out[:0]
	for _, slot := range slots {
		p.out = append(p.out, p.items[slot])
	}
	return p.out
}

// Remove moves the last item into the removed one's slot, as the core does.
func (p *keyed) Remove(it oodb.Item) {
	slot, ok := p.index.Delete(it.Key())
	if !ok {
		return
	}
	last := int32(len(p.items) - 1)
	if slot != last {
		p.items[slot] = p.items[last]
		p.index.Set(p.items[slot].Key(), slot)
	}
	p.items = p.items[:last]
	p.core.Remove(slot)
}

// Len is the core's: once Slots has handed the core to a cache, the
// cache's residents.
func (p *keyed) Len() int { return p.core.Len() }

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
		return NewLRU, nil
	case spec == "lrd":
		return func() Policy { return NewLRD(DefaultLRDInterval) }, nil
	case spec == "mean":
		return NewMean, nil
	case spec == "fifo":
		return NewFIFO, nil
	case spec == "clock":
		return NewClock, nil
	case spec == "mru":
		return NewMRU, nil
	case scan1(spec, "lru-", &k) && k >= 1:
		return func() Policy { return NewLRUK(k) }, nil
	case scan1(spec, "win-", &w) && w >= 1:
		return func() Policy { return NewWindow(w) }, nil
	case scan1(spec, "ewma-", &a) && a >= 0 && a < 1:
		return func() Policy { return NewEWMA(a) }, nil
	case scan1(spec, "random:", &seed):
		return NewRandomFactory(seed), nil
	}
	return nil, fmt.Errorf("replacement: unknown policy spec %q", spec)
}

// scan1 reports whether s is prefix followed by one number and nothing
// else, storing the number in v (an *int, *uint64 or *float64).
func scan1(s, prefix string, v any) bool {
	rest, ok := strings.CutPrefix(s, prefix)
	var err error
	switch v := v.(type) {
	case *int:
		*v, err = strconv.Atoi(rest)
	case *uint64:
		*v, err = strconv.ParseUint(rest, 10, 64)
	case *float64:
		*v, err = strconv.ParseFloat(rest, 64)
	}
	return ok && err == nil
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
