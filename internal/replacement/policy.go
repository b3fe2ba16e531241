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
