// Package serve promotes the simulator's client-cache machinery —
// granularity-aware caching (internal/core), adaptive lease coherence
// (internal/coherence), and pluggable replacement (internal/replacement) —
// behind a transport-agnostic Store interface driven by the wall clock
// instead of the simulation clock. cmd/mccached exposes a Store over
// HTTP/JSON; cmd/mcload replays experiment.Config workloads against it
// over real sockets, making the simulator the deterministic twin of a live
// service (docs/SERVING.md).
//
// A Store hosts one cache session per client ID (the paper's per-client
// cache) in front of a shared origin database with a write-history lease
// estimator (RT = d̄ + β·s, §3.2 of the paper). Lease expiry is judged
// against the store's real clock, so live hit/stale dynamics arise from
// actual elapsed time between writes and reads — the property the
// sim-vs-live validation in docs/SERVING.md leans on.
package serve

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/workload"
)

// Errors returned by Store operations and constructors.
var (
	// ErrBadRequest marks a request that names an unknown object,
	// attribute, or client, or uses an unsupported mode.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrUnsupported marks a configuration the live layer does not carry:
	// granularities without a durable cache (NC) or with server-side
	// prefetch profiles (HC), and coherence schemes that need a broadcast
	// channel.
	ErrUnsupported = errors.New("serve: unsupported configuration")
)

// ReadMode selects how Read treats a miss or an expired copy.
type ReadMode int

const (
	// ModeServe fetches misses and stale copies from the origin and
	// installs the fresh item before returning — the one-round-trip flow a
	// conventional cache client wants.
	ModeServe ReadMode = iota
	// ModeProbe only classifies the access (hit / stale / miss) without
	// installing anything. The load generator uses it to replay the
	// simulator's flow: probe every read, apply the query's updates, then
	// Fetch the needed items — the order the simulated client and server
	// interleave in.
	ModeProbe
)

// ParseReadMode maps the wire spelling to a ReadMode.
func ParseReadMode(s string) (ReadMode, error) {
	switch s {
	case "", "serve":
		return ModeServe, nil
	case "probe":
		return ModeProbe, nil
	default:
		return 0, fmt.Errorf("%w: read mode %q (want serve|probe)", ErrBadRequest, s)
	}
}

// ReadResult reports one read: the probed state, the served entry, and the
// perfect-knowledge error verdict (the origin lives in the same process, so
// the service plays the paper's oracle).
type ReadResult struct {
	// Item is the cache unit the read resolved to under the store's
	// granularity (the whole object under OC, one attribute under AC).
	Item oodb.Item
	// State classifies the probe: Hit (resident, lease running), Stale
	// (resident, lease expired), Miss.
	State core.LookupState
	// Version is the served copy's origin version (zero on a probe miss).
	Version uint64
	// ExpiresAt is the served copy's lease expiry on the store clock.
	ExpiresAt float64
	// Error reports a coherence violation: the read was served from a copy
	// the origin has since overwritten. Meaningful on hits (and on
	// ModeServe, where misses are served fresh and never erroneous).
	Error bool
	// FromOrigin reports that ModeServe fetched the item from the origin
	// (the probe did not hit).
	FromOrigin bool
	// Now is the store-clock timestamp the read was judged at.
	Now float64
}

// FetchedItem is one item installed by Fetch, echoing its lease.
type FetchedItem struct {
	// Item is the installed cache unit.
	Item oodb.Item
	// Version is the origin version shipped.
	Version uint64
	// ExpiresAt is the granted lease expiry on the store clock.
	ExpiresAt float64
}

// LeaseInfo is a point-in-time view of one cached item's lease.
type LeaseInfo struct {
	// Cached reports residency in the client's session.
	Cached bool
	// Valid reports a running lease (false when expired or absent).
	Valid bool
	// Version is the cached copy's origin version.
	Version uint64
	// ExpiresAt is the absolute lease expiry on the store clock.
	ExpiresAt float64
	// Remaining is seconds of lease left (negative = expired).
	Remaining float64
	// Now is the store-clock timestamp of the observation.
	Now float64
}

// Stats is a snapshot of a store's cumulative counters and cache state.
type Stats struct {
	// Backend names the implementation ("memory", "file").
	Backend string `json:"backend"`
	// DSN echoes the backend string the store was opened with, with
	// filesystem paths redacted to their final element (clients should not
	// learn the server's directory layout from a stats endpoint).
	DSN string `json:"dsn"`
	// DiskBytes is the on-disk footprint of a persistent backend (0 for
	// memory).
	DiskBytes int64 `json:"disk_bytes"`
	// Granularity and Policy echo the store configuration.
	Granularity string `json:"granularity"`
	Policy      string `json:"policy"`
	// Uptime is seconds since the store started, on the store clock.
	Uptime float64 `json:"uptime_s"`
	// Sessions is the number of per-client cache sessions materialized.
	Sessions int `json:"sessions"`
	// Reads counts Read calls; Hits/Stales/Misses classify their probes.
	Reads  uint64 `json:"reads"`
	Hits   uint64 `json:"hits"`
	Stales uint64 `json:"stales"`
	Misses uint64 `json:"misses"`
	// Errors counts hits served with an overwritten version.
	Errors uint64 `json:"errors"`
	// Fetches counts items installed from the origin (Fetch and ModeServe).
	Fetches uint64 `json:"fetches"`
	// Writes counts origin write operations (attribute writes).
	Writes uint64 `json:"writes"`
	// Invalidations counts cache entries dropped by Invalidate.
	Invalidations uint64 `json:"invalidations"`
	// Renewals counts leases refreshed by Renew.
	Renewals uint64 `json:"renewals"`
	// CacheItems / CacheBytes aggregate residency across sessions.
	CacheItems int `json:"cache_items"`
	CacheBytes int `json:"cache_bytes"`
	// Evictions / Insertions aggregate storage-cache churn across sessions.
	Evictions  uint64 `json:"evictions"`
	Insertions uint64 `json:"insertions"`
}

// Store is the transport-agnostic live cache engine: per-client cache
// sessions over a shared origin with lease coherence on the wall clock.
// Implementations are safe for concurrent use.
type Store interface {
	// Read resolves one read for clientID under the store's granularity.
	Read(clientID int, oid oodb.OID, attr oodb.AttrID, mode ReadMode) (ReadResult, error)
	// Fetch installs the cache units covering reads from the origin into
	// clientID's session and returns their leases. It dedups reads that
	// cover the same unit.
	Fetch(clientID int, reads []workload.ReadOp) ([]FetchedItem, error)
	// Write applies one write event at the origin (coherence.Origin.Write,
	// the code the simulated server applies its updates with): every
	// distinct named attribute is written and observed by the
	// attribute-grain lease estimator, and the object-grain estimator
	// observes the event once. Returns the object's new version.
	Write(oid oodb.OID, attrs []oodb.AttrID) (uint64, error)
	// Invalidate drops the cache unit covering (oid, attr) from clientID's
	// session, or from every session when clientID is negative. Passing
	// attr = oodb.WholeObject drops every unit of the object regardless of
	// granularity. Returns the number of entries removed.
	Invalidate(clientID int, oid oodb.OID, attr oodb.AttrID) (int, error)
	// Renew revalidates a cached unit in place: version and lease are
	// refreshed from the origin without shipping the payload. A unit that
	// is not resident is left absent (Cached = false).
	Renew(clientID int, oid oodb.OID, attr oodb.AttrID) (LeaseInfo, error)
	// Lease inspects a cached unit's lease without perturbing replacement
	// state.
	Lease(clientID int, oid oodb.OID, attr oodb.AttrID) (LeaseInfo, error)
	// Stats snapshots the store's counters.
	Stats() Stats
	// Now returns the store-clock time in seconds since start.
	Now() float64
	// Register wires the store's gauges into an observability registry
	// (serve.* series); no-op when the registry is disabled.
	Register(reg *obs.Registry)
}

// Config parameterizes a Store. The zero value is completed by defaults
// matching the paper's Table 1 client (400-object storage cache, 30-object
// memory buffer, β = 0).
type Config struct {
	// Granularity selects the cache unit: core.AttributeCaching or
	// core.ObjectCaching. NC (nothing to serve from) and HC (needs the
	// server-side per-client heat profile) are rejected by Open.
	Granularity core.Granularity
	// Policy is the replacement spec (replacement.Parse), e.g. "ewma-0.5".
	Policy string
	// NumObjects sizes the origin database (default oodb.DefaultNumObjects).
	NumObjects int
	// StorageObjects is each session's storage-cache budget in objects'
	// worth of bytes (default NumObjects/5, the paper's 20%).
	StorageObjects int
	// MemBufferObjects is each session's memory buffer (default 30).
	MemBufferObjects int
	// Beta is the lease slack in RT = d̄ + β·s (default 0).
	Beta float64
	// FixedLease > 0 switches from adaptive leases to the original Leases
	// scheme: every installed copy gets this duration.
	FixedLease float64
	// RelSeed derives the origin's relationship topology. Boot the service
	// with the run's root seed through experiment.NewDatabase-compatible
	// derivation (experiment.RelSeed) so navigational replays agree.
	RelSeed uint64
	// DB overrides the origin database (tests, embedding). When nil a
	// fresh database is built from NumObjects and RelSeed.
	DB *oodb.Database
	// Clock overrides the store clock: a monotonically nondecreasing
	// seconds-since-start reading. Nil selects the wall clock. Tests
	// inject a fake clock to pin lease-expiry edge cases.
	Clock func() float64
}

// Open constructs a store backend from a DSN: the backend name, optionally
// followed by ':' and backend-specific operands. "", "memory" and "mem"
// select the in-memory backend; "file:/path/cache.db?sync=group" opens (or
// recovers) a persistent store at the path. Any other name returns
// ErrBadRequest.
func Open(dsn string, cfg Config) (Store, error) {
	name, rest, _ := strings.Cut(dsn, ":")
	switch name {
	case "", "memory", "mem":
		if rest != "" {
			return nil, fmt.Errorf("%w: memory backend takes no operands (got %q)", ErrBadRequest, dsn)
		}
		return NewMemory(cfg)
	case "file":
		return openFileDSN(dsn, cfg)
	}
	return nil, fmt.Errorf("%w: unknown backend %q (want memory, mem or file:<path>)", ErrBadRequest, name)
}
