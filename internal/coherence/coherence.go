// Package coherence implements the paper's lazy pull-based cache coherence
// strategy (§3.2) and the perfect-knowledge error accounting used by its
// evaluation (§3.2, §5).
//
// The scheme derives from the Leases file-caching mechanism: every item
// shipped from the server carries a refresh time
//
//	RT = d̄ + β·s
//
// where d̄ and s are the mean and standard deviation of the inter-arrival
// durations of write operations on the item, and β expresses how much
// staleness the client tolerates (larger β → longer leases → higher hit
// ratio, more errors). The client treats a cached copy as valid until
// fetchTime + RT; expired copies are refreshed on demand at the next access
// — no server callbacks, no invalidation broadcasts, so the scheme works
// across disconnections.
//
// An access to a cached copy counts as an *error* when the server has
// applied a write to the base item after the copy was fetched — evaluated
// with perfect knowledge via the version counters in internal/oodb.
package coherence

import (
	"fmt"
	"math"

	"repro/internal/oodb"
	"repro/internal/stats"
)

// NoExpiry is a sentinel "never expires" timestamp used by tests and
// read-only workloads.
const NoExpiry = math.MaxFloat64

// Strategy selects the coherence scheme a client runs. Manifests store it
// as a number, so the values are fixed: 1, the retired reliable
// invalidation-report scheme, names no strategy.
type Strategy int

const (
	// LeaseStrategy is the paper's lazy pull-based scheme: items carry
	// adaptive refresh times and are re-validated on demand.
	LeaseStrategy Strategy = 0
	// FixedLeaseStrategy is the original Leases scheme [7] with a single
	// pre-specified refresh duration for every item — the baseline whose
	// weakness ("it is difficult to determine an appropriate refresh
	// duration", §2) motivates the paper's adaptive per-item estimate.
	FixedLeaseStrategy Strategy = 2
	// IRBroadcastStrategy is the broadcast baseline of [2] the paper
	// argues against, in Barbará & Imieliński's windowed
	// broadcasting-timestamps variant: every report period the server
	// pushes, over a dedicated downlink broadcast channel, the set of
	// items written during the trailing report window.
	// A client whose silence gap fits inside the window reconciles
	// incrementally; a client that slept through more than one window (or
	// lost the report frame to channel faults) can no longer bound its
	// staleness and must force-revalidate every cached item on next use.
	// It runs one broadcaster per fleet cell, and forced revalidation
	// keeps the cache contents: only their leases are voided.
	IRBroadcastStrategy Strategy = 3
)

// String renders the strategy name.
func (s Strategy) String() string {
	switch s {
	case LeaseStrategy:
		return "lease"
	case FixedLeaseStrategy:
		return "fixed-lease"
	case IRBroadcastStrategy:
		return "ir-broadcast"
	default:
		return "strategy(?)"
	}
}

// Parse maps a CLI/option spelling to a Strategy. Accepted names are the
// String() forms plus the short CLI aliases: "lease", "fixed"/"fixed-lease",
// and "irb"/"ir-broadcast".
func Parse(name string) (Strategy, error) {
	switch name {
	case "lease":
		return LeaseStrategy, nil
	case "fixed", "fixed-lease":
		return FixedLeaseStrategy, nil
	case "irb", "ir-broadcast":
		return IRBroadcastStrategy, nil
	}
	return 0, fmt.Errorf("coherence: unknown strategy %q (want lease|fixed|irb)", name)
}

// DefaultReportInterval is the invalidation-report broadcast period in
// simulated seconds.
const DefaultReportInterval = 60.0

// DefaultFixedLease is the refresh duration used by FixedLeaseStrategy
// when none is configured.
const DefaultFixedLease = 600.0

// DefaultIRWindow is the trailing update window, in simulated seconds,
// covered by each IRBroadcastStrategy report when none is configured.
// Five report periods of slack lets a client ride out transient frame
// loss without forced revalidation.
const DefaultIRWindow = 5 * DefaultReportInterval

// RefreshEstimator tracks the write streams of database items at the
// server and estimates per-item refresh times. One estimator instance
// lives at the server; the granularity of its keys matches the caching
// granularity (whole objects under OC, attributes under AC/HC).
type RefreshEstimator struct {
	beta float64
	// Streams live contiguously in an arena located through the index: one
	// allocation per arena growth instead of one per tracked item, and the
	// hot ObserveWrite/RefreshTime lookups touch a flat slice.
	index   oodb.ItemIndex
	streams []stats.InterArrival
}

// NewRefreshEstimator returns an estimator with the given β.
func NewRefreshEstimator(beta float64) *RefreshEstimator {
	return &RefreshEstimator{beta: beta}
}

// ObserveWrite records a write on item at virtual time now.
func (e *RefreshEstimator) ObserveWrite(it oodb.Item, now float64) {
	e.streams[e.stream(it)].Observe(now)
}

// stream returns item's arena position, starting an empty stream for an
// item not seen before.
func (e *RefreshEstimator) stream(it oodb.Item) int32 {
	i, ok := e.index.Get(it.Key())
	if !ok {
		i = int32(len(e.streams))
		e.streams = append(e.streams, stats.InterArrival{})
		e.index.Set(it.Key(), i)
	}
	return i
}

// RefreshTime returns the lease duration for item at time now.
//
// With at least two observed writes this is the paper's formula
// RT = d̄ + β·s over the write inter-arrival durations, clamped at zero
// (a strongly negative β makes copies immediately stale).
//
// Thin histories need a provisional estimate — an infinite lease here
// would freeze an early-fetched copy forever and silently accrue errors
// once writes begin (the paper's on-demand refresh can only re-learn a
// lease when a lease actually expires). We use the maximum-likelihood
// style fallbacks: an item never written in `now` seconds is leased for
// another `now` seconds; an item written exactly once is leased for the
// time elapsed since that write. Both converge to the formula as history
// accumulates.
func (e *RefreshEstimator) RefreshTime(it oodb.Item, now float64) float64 {
	i, ok := e.index.Get(it.Key())
	if !ok {
		return now
	}
	s := &e.streams[i]
	if s.Count() == 0 {
		last, _ := s.Last()
		if rt := now - last; rt > 0 {
			return rt
		}
		return 0
	}
	rt := s.Mean() + e.beta*s.Std()
	if rt < 0 {
		return 0
	}
	return rt
}

// StreamState snapshots item's write-stream estimator state for
// persistence. The boolean reports whether the item has any history.
func (e *RefreshEstimator) StreamState(it oodb.Item) (stats.InterArrivalState, bool) {
	i, ok := e.index.Get(it.Key())
	if !ok {
		return stats.InterArrivalState{}, false
	}
	return e.streams[i].State(), true
}

// RestoreStream installs a previously snapshotted write stream for item,
// replacing any history the estimator already holds for it. A persistent
// tier replays these at recovery so refresh-time estimates survive
// restarts.
func (e *RefreshEstimator) RestoreStream(it oodb.Item, st stats.InterArrivalState) {
	e.streams[e.stream(it)].Restore(st)
}

// Oracle evaluates read errors with perfect knowledge of server state. It
// compares the version a client fetched against the server's current
// version at read time: any interleaved write makes the read an error
// (§3.2's definition: a write precedes the read within the two refreshes).
type Oracle struct {
	db *oodb.Database
}

// NewOracle returns an oracle over the server database.
func NewOracle(db *oodb.Database) *Oracle {
	if db == nil {
		panic("coherence: NewOracle requires a database")
	}
	return &Oracle{db: db}
}

// CurrentVersion returns the server-side version of the item: the object
// version for whole-object items, the attribute version otherwise. Clients
// stamp cache entries with this value at fetch time.
func (o *Oracle) CurrentVersion(it oodb.Item) uint64 {
	if it.IsObject() {
		return o.db.ObjectVersion(it.OID)
	}
	return o.db.AttrVersion(it.OID, it.Attr)
}

// IsError reports whether reading a copy of item fetched at version
// cachedVersion is an error now, i.e. whether the base item has been
// written since the fetch.
//
// The granularity of `it` is load-bearing and reproduces the paper's
// Experiment #5 observation: under OC the cached unit is the whole object,
// so a write to *any* attribute invalidates reads of *every* attribute
// (higher error rates), while under AC/HC only writes to the same
// attribute count.
func (o *Oracle) IsError(it oodb.Item, cachedVersion uint64) bool {
	return o.CurrentVersion(it) > cachedVersion
}
