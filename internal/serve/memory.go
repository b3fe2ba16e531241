// memory.go is the in-memory Store backend: the paper's per-client cache
// (storage cache + memory buffer, pluggable replacement) promoted behind a
// concurrency-safe API, over an in-process origin database with the
// adaptive-lease write-history estimators.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/replacement"
	"repro/internal/workload"
)

// origin is the shared authoritative side: the coherence.Origin the
// simulator's server runs on, behind one mutex — every operation reads or
// writes the same version counters.
type origin struct {
	mu sync.Mutex
	*coherence.Origin
}

// session is one client's cache hierarchy — the core.Hierarchy the simulated
// client runs on. The mutex makes it safe under concurrent requests for the
// same client ID; neither level is concurrency-safe on its own.
type session struct {
	mu    sync.Mutex
	local *core.Hierarchy
}

// Memory is the in-memory Store. Per-client state is sharded into sessions
// (created lazily on first touch), so concurrent clients contend only on
// the origin and the sessions map, not on each other's caches. Counters are
// atomics, readable without locks by the stats endpoint and obs gauges.
type Memory struct {
	gran       core.Granularity
	policy     string
	factory    replacement.Factory
	storeBytes int
	memObjects int
	fixed      float64
	clock      func() float64

	org origin

	mu       sync.RWMutex
	sessions map[int]*session

	reads, hits, stales, misses uint64
	errs, fetches, writes       uint64
	invalidations, renewals     uint64
}

// NewMemory builds the in-memory backend. It rejects granularities the live
// layer cannot carry (NC has nothing to serve from a cache; HC needs the
// simulator's server-side per-client heat profile) and bad policy specs.
func NewMemory(cfg Config) (*Memory, error) {
	switch cfg.Granularity {
	case core.AttributeCaching, core.ObjectCaching:
	case core.NoCache, core.HybridCaching:
		return nil, fmt.Errorf("%w: granularity %s (want ac|oc)", ErrUnsupported, cfg.Granularity)
	default:
		return nil, fmt.Errorf("%w: unknown granularity", ErrBadRequest)
	}
	// The simulated client's Table 1 defaults, read from the one place the
	// simulator reads them.
	d := experiment.Defaults(experiment.Config{
		NumObjects:       cfg.NumObjects,
		Policy:           cfg.Policy,
		StorageObjects:   cfg.StorageObjects,
		MemBufferObjects: cfg.MemBufferObjects,
	})
	cfg.NumObjects, cfg.Policy = d.NumObjects, d.Policy
	if cfg.NumObjects > oodb.MaxIndexedObjects {
		// A session's LRU-k numbers every item it has seen in an ItemIndex.
		return nil, fmt.Errorf("%w: %d objects, more than the %d an item index numbers",
			ErrBadRequest, cfg.NumObjects, oodb.MaxIndexedObjects)
	}
	cfg.StorageObjects, cfg.MemBufferObjects = d.StorageObjects, d.MemBufferObjects
	factory, err := replacement.Parse(cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	db := cfg.DB
	if db == nil {
		db = oodb.New(oodb.Config{NumObjects: cfg.NumObjects, RelSeed: cfg.RelSeed})
	}
	clock := cfg.Clock
	if clock == nil {
		start := time.Now()
		clock = func() float64 { return time.Since(start).Seconds() }
	}
	m := &Memory{
		gran:       cfg.Granularity,
		policy:     cfg.Policy,
		factory:    factory,
		storeBytes: cfg.StorageObjects * core.ItemCost(oodb.ObjectItem(0)),
		memObjects: cfg.MemBufferObjects,
		fixed:      cfg.FixedLease,
		clock:      clock,
		sessions:   make(map[int]*session),
	}
	m.org.Origin = coherence.NewOrigin(db, cfg.Beta)
	return m, nil
}

// Now implements Store.
func (m *Memory) Now() float64 { return m.clock() }

// lookup returns clientID's session, or nil when the client has none yet.
func (m *Memory) lookup(clientID int) *session {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.sessions[clientID]
}

// session returns clientID's session, creating it on first touch. Only the
// paths that cache something call it; inspection and invalidation go through
// lookup, so probing client ids cannot grow the sessions map.
func (m *Memory) session(clientID int) *session {
	if s := m.lookup(clientID); s != nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sessions[clientID]
	if s == nil {
		// Sessions run concurrently, each under its own lock: one scratch each.
		s = &session{local: core.NewHierarchy(m.gran, m.storeBytes, m.factory(), m.memObjects, new(core.Scratch))}
		m.sessions[clientID] = s
	}
	return s
}

// originEntry grants a lease on one cache unit at now: the origin's version
// and refresh time, or the fixed duration when one is configured.
func (m *Memory) originEntry(it oodb.Item, now float64) core.Entry {
	m.org.mu.Lock()
	version, lease := m.org.Grant(it, now)
	m.org.mu.Unlock()
	if m.fixed > 0 {
		lease = m.fixed
	}
	return core.Entry{Version: version, ExpiresAt: now + lease, FetchedAt: now}
}

// isError consults the oracle under the origin lock.
func (m *Memory) isError(it oodb.Item, version uint64) bool {
	m.org.mu.Lock()
	defer m.org.mu.Unlock()
	return m.org.Oracle().IsError(it, version)
}

// checkRead validates read coordinates against the origin's schema.
func (m *Memory) checkRead(oid oodb.OID, attr oodb.AttrID) error {
	if !m.org.DB().ValidOID(oid) {
		return fmt.Errorf("%w: oid %d out of range", ErrBadRequest, oid)
	}
	if !attr.Valid() {
		return fmt.Errorf("%w: attr %d out of range", ErrBadRequest, attr)
	}
	return nil
}

// Read implements Store. A Hit may still be an error (a write landed inside
// the lease — judged by the oracle); misses and expired copies are either
// reported as-is (ModeProbe) or served fresh from the origin (ModeServe).
func (m *Memory) Read(clientID int, oid oodb.OID, attr oodb.AttrID, mode ReadMode) (ReadResult, error) {
	if err := m.checkRead(oid, attr); err != nil {
		return ReadResult{}, err
	}
	it := core.CoverItem(m.gran, oid, attr)
	s := m.session(clientID)
	now := m.clock()
	atomic.AddUint64(&m.reads, 1)

	s.mu.Lock()
	entry, state, _ := s.local.Probe(it, now)
	s.mu.Unlock()

	res := ReadResult{Item: it, State: state, Now: now}
	switch state {
	case core.Hit:
		atomic.AddUint64(&m.hits, 1)
		res.Version = entry.Version
		res.ExpiresAt = entry.ExpiresAt
		res.Error = m.isError(it, entry.Version)
		if res.Error {
			atomic.AddUint64(&m.errs, 1)
		}
		return res, nil
	case core.Stale:
		atomic.AddUint64(&m.stales, 1)
		res.Version = entry.Version
		res.ExpiresAt = entry.ExpiresAt
	default:
		atomic.AddUint64(&m.misses, 1)
	}
	if mode == ModeProbe {
		return res, nil
	}

	// ModeServe: refresh from the origin and install.
	fresh := m.originEntry(it, now)
	s.mu.Lock()
	s.local.Put(it, fresh, now)
	s.mu.Unlock()
	atomic.AddUint64(&m.fetches, 1)
	res.Version = fresh.Version
	res.ExpiresAt = fresh.ExpiresAt
	res.Error = false
	res.FromOrigin = true
	return res, nil
}

// Fetch implements Store: reads dedup to distinct cache units in first-seen
// order, each unit ships the origin version with a lease, and the batch is
// installed in both cache levels (nothing here is a prefetch).
func (m *Memory) Fetch(clientID int, reads []workload.ReadOp) ([]FetchedItem, error) {
	for _, rd := range reads {
		if err := m.checkRead(rd.OID, rd.Attr); err != nil {
			return nil, err
		}
	}
	s := m.session(clientID)
	now := m.clock()

	out := make([]FetchedItem, 0, len(reads))
	seen := make(map[oodb.Item]struct{}, len(reads))
	for _, rd := range reads {
		it := core.CoverItem(m.gran, rd.OID, rd.Attr)
		if _, dup := seen[it]; dup {
			continue
		}
		seen[it] = struct{}{}
		e := m.originEntry(it, now)
		out = append(out, FetchedItem{Item: it, Version: e.Version, ExpiresAt: e.ExpiresAt})
	}

	s.mu.Lock()
	for _, fi := range out {
		s.local.Stage(fi.Item, core.Entry{Version: fi.Version, ExpiresAt: fi.ExpiresAt, FetchedAt: now}, false)
	}
	s.local.Commit(now)
	s.mu.Unlock()
	atomic.AddUint64(&m.fetches, uint64(len(out)))
	return out, nil
}

// Write implements Store: one write event at the origin
// (coherence.Origin.Write).
func (m *Memory) Write(oid oodb.OID, attrs []oodb.AttrID) (uint64, error) {
	if !m.org.DB().ValidOID(oid) {
		return 0, fmt.Errorf("%w: oid %d out of range", ErrBadRequest, oid)
	}
	if len(attrs) == 0 {
		return 0, fmt.Errorf("%w: write names no attributes", ErrBadRequest)
	}
	for _, a := range attrs {
		if !a.Valid() {
			return 0, fmt.Errorf("%w: attr %d out of range", ErrBadRequest, a)
		}
	}
	now := m.clock()
	m.org.mu.Lock()
	defer m.org.mu.Unlock()
	atomic.AddUint64(&m.writes, uint64(m.org.Write(oid, attrs, now, nil)))
	return m.org.DB().ObjectVersion(oid), nil
}

// units expands an invalidation coordinate into the cache units it covers.
func (m *Memory) units(oid oodb.OID, attr oodb.AttrID) ([]oodb.Item, error) {
	if !m.org.DB().ValidOID(oid) {
		return nil, fmt.Errorf("%w: oid %d out of range", ErrBadRequest, oid)
	}
	if attr == oodb.WholeObject {
		if !m.gran.UsesAttributeItems() {
			return []oodb.Item{oodb.ObjectItem(oid)}, nil
		}
		units := make([]oodb.Item, oodb.NumAttrs)
		for a := range units {
			units[a] = oodb.AttrItem(oid, oodb.AttrID(a))
		}
		return units, nil
	}
	if !attr.Valid() {
		return nil, fmt.Errorf("%w: attr %d out of range", ErrBadRequest, attr)
	}
	return []oodb.Item{core.CoverItem(m.gran, oid, attr)}, nil
}

// Invalidate implements Store.
func (m *Memory) Invalidate(clientID int, oid oodb.OID, attr oodb.AttrID) (int, error) {
	units, err := m.units(oid, attr)
	if err != nil {
		return 0, err
	}
	var targets []*session
	if clientID < 0 {
		m.mu.RLock()
		targets = make([]*session, 0, len(m.sessions))
		for _, s := range m.sessions {
			targets = append(targets, s)
		}
		m.mu.RUnlock()
	} else if s := m.lookup(clientID); s != nil {
		targets = []*session{s}
	}
	removed := 0
	for _, s := range targets {
		s.mu.Lock()
		for _, it := range units {
			if s.local.Remove(it) {
				removed++
			}
		}
		s.mu.Unlock()
	}
	atomic.AddUint64(&m.invalidations, uint64(removed))
	return removed, nil
}

// leaseInfo renders the lease view of a cached entry at now.
func leaseInfo(e core.Entry, now float64) LeaseInfo {
	return LeaseInfo{
		Cached:    true,
		Valid:     e.ValidAt(now),
		Version:   e.Version,
		ExpiresAt: e.ExpiresAt,
		Remaining: e.ExpiresAt - now,
		Now:       now,
	}
}

// peek returns clientID's cached copy of it, if the client has a session
// holding one, without touching replacement state.
func (m *Memory) peek(clientID int, it oodb.Item) (*session, core.Entry, bool) {
	s := m.lookup(clientID)
	if s == nil {
		return nil, core.Entry{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.local.Peek(it)
	return s, e, ok
}

// Lease implements Store.
func (m *Memory) Lease(clientID int, oid oodb.OID, attr oodb.AttrID) (LeaseInfo, error) {
	if err := m.checkRead(oid, attr); err != nil {
		return LeaseInfo{}, err
	}
	now := m.clock()
	if _, e, ok := m.peek(clientID, core.CoverItem(m.gran, oid, attr)); ok {
		return leaseInfo(e, now), nil
	}
	return LeaseInfo{Now: now}, nil
}

// Renew implements Store: revalidate a resident unit in place — fresh
// version and lease from the origin, no payload shipped. Absent units stay
// absent (a renewal is not a fetch).
func (m *Memory) Renew(clientID int, oid oodb.OID, attr oodb.AttrID) (LeaseInfo, error) {
	if err := m.checkRead(oid, attr); err != nil {
		return LeaseInfo{}, err
	}
	it := core.CoverItem(m.gran, oid, attr)
	now := m.clock()
	s, _, cached := m.peek(clientID, it)
	if !cached {
		return LeaseInfo{Now: now}, nil
	}
	fresh := m.originEntry(it, now)
	s.mu.Lock()
	defer s.mu.Unlock()
	// A concurrent Invalidate may have won since the peek.
	if !s.local.Refresh(it, fresh) {
		return LeaseInfo{Now: now}, nil
	}
	atomic.AddUint64(&m.renewals, 1)
	return leaseInfo(fresh, now), nil
}

// Stats implements Store.
func (m *Memory) Stats() Stats {
	st := Stats{
		Backend:       "memory",
		DSN:           "memory",
		Granularity:   m.gran.String(),
		Policy:        m.policy,
		Uptime:        m.clock(),
		Reads:         atomic.LoadUint64(&m.reads),
		Hits:          atomic.LoadUint64(&m.hits),
		Stales:        atomic.LoadUint64(&m.stales),
		Misses:        atomic.LoadUint64(&m.misses),
		Errors:        atomic.LoadUint64(&m.errs),
		Fetches:       atomic.LoadUint64(&m.fetches),
		Writes:        atomic.LoadUint64(&m.writes),
		Invalidations: atomic.LoadUint64(&m.invalidations),
		Renewals:      atomic.LoadUint64(&m.renewals),
	}
	m.mu.RLock()
	sessions := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.RUnlock()
	st.Sessions = len(sessions)
	for _, s := range sessions {
		s.mu.Lock()
		cache := s.local.Storage()
		st.CacheItems += cache.Len()
		st.CacheBytes += cache.UsedBytes()
		st.Evictions += cache.Evictions()
		st.Insertions += cache.Insertions()
		s.mu.Unlock()
	}
	return st
}

// Register implements Store: cumulative counters as gauges plus pooled
// cache occupancy, sampled by whatever Ticker the registry is attached to
// (a WallTicker for live services). Gauges read atomics and take the
// session locks only for the occupancy aggregates, so sampling never
// blocks the request path for long.
func (m *Memory) Register(reg *obs.Registry) {
	if !reg.Enabled() {
		return
	}
	counter := func(name string, p *uint64) {
		reg.Gauge(name, func() float64 { return float64(atomic.LoadUint64(p)) })
	}
	counter("serve.reads", &m.reads)
	counter("serve.hits", &m.hits)
	counter("serve.stales", &m.stales)
	counter("serve.misses", &m.misses)
	counter("serve.errors", &m.errs)
	counter("serve.fetches", &m.fetches)
	counter("serve.writes", &m.writes)
	counter("serve.invalidations", &m.invalidations)
	reg.Gauge("serve.hit_ratio", func() float64 {
		reads := atomic.LoadUint64(&m.reads)
		if reads == 0 {
			return 0
		}
		return float64(atomic.LoadUint64(&m.hits)) / float64(reads)
	})
	reg.Gauge("serve.cache_bytes", func() float64 {
		return float64(m.Stats().CacheBytes)
	})
	reg.Gauge("serve.sessions", func() float64 {
		m.mu.RLock()
		defer m.mu.RUnlock()
		return float64(len(m.sessions))
	})
}
