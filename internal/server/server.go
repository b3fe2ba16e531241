// Package server implements the OODB database server of §4: query
// evaluation against the object store through an LRU memory buffer and a
// fast-SCSI disk, application of update operations (probability U per
// accessed object), maintenance of per-item write histories for the
// refresh-time estimator, attribute-heat tracking for hybrid caching's
// prefetch decision, and reply assembly per caching granularity.
package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"repro/internal/buffer"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Defaults from §4 / Table 1.
const (
	// DefaultBufferObjects is the server memory buffer: 25% of the
	// database, i.e. 500 objects.
	DefaultBufferObjects = 500
	// DefaultPrefetchKappa places the HC prefetch threshold at
	// c = μ + κ·σ over per-attribute access rates. The paper states
	// κ = −2; for any realistically skewed rate distribution that cutoff
	// is non-positive, which would degrade HC into OC, so the default here
	// is κ = 0 ("prefetch attributes at least as popular as the average")
	// — see DESIGN.md. κ is configurable, and the ablation benchmark
	// sweeps it (including the paper's −2).
	DefaultPrefetchKappa = 0.0
	// prefetchMinSamples is how many attribute accesses the server wants
	// from a client before trusting its heat profile for prefetching.
	prefetchMinSamples = 100
	// diskSecPerObject and memSecPerObject move one object through the
	// server's 40 Mbps disk and 100 Mbps memory.
	diskSecPerObject = oodb.ObjectSize * 8 / network.DiskBandwidthBps
	memSecPerObject  = oodb.ObjectSize * 8 / network.MemoryBandwidthBps
)

// StorageTier is the persistent disk tier behind the memory buffer — the
// log-structured engine of internal/storage (or a test double). On every
// buffer miss the server reads the object's record from the tier, lazily
// materializing objects on first touch, so a database far larger than RAM
// exercises a real on-disk working set. The tier is a measured side
// effect: simulated timing still charges the modeled disk constants, so
// results remain byte-deterministic across machines and sync modes while
// the tier's wall-clock latencies land in its own histograms.
type StorageTier interface {
	Get(key string) ([]byte, bool, error)
	Put(key string, value []byte) error
}

// Config parameterizes the server.
type Config struct {
	Kernel *sim.Kernel
	DB     *oodb.Database
	// BufferObjects is the LRU memory buffer capacity in objects
	// (DefaultBufferObjects if zero).
	BufferObjects int
	// Beta is the coherence staleness-tolerance knob for refresh times.
	Beta float64
	// UpdateProb is U: the probability that an object accessed by a query
	// is updated at the server during that query's processing.
	UpdateProb float64
	// PrefetchKappa positions the HC prefetch threshold at μ + κ·σ.
	// NaN selects DefaultPrefetchKappa; -inf prefetches everything.
	PrefetchKappa float64
	// Seed drives the update coin flips.
	Seed uint64
	// Storage, when non-nil, is the persistent tier behind the buffer pool
	// (see StorageTier).
	Storage StorageTier
}

// Request is a client query as seen by the server. Wire size is computed
// from ExistentEntries (the existent list, §3.1.2); the remaining fields
// are simulation-level knowledge the real server would derive by
// evaluating the query itself.
type Request struct {
	ClientID    int
	Granularity core.Granularity
	// Accesses is the query's full read set (for the update model: every
	// accessed object is updated with probability U).
	Accesses []workload.ReadOp
	// Need is the subset of reads the client could not satisfy locally.
	Need []workload.ReadOp
	// ExistentEntries counts the (oid, attr) pairs the client reported as
	// locally satisfied.
	ExistentEntries int
}

// WireSize returns the upstream message size in bytes.
func (r Request) WireSize() int { return network.RequestSize(r.ExistentEntries) }

// ReplyItem is one item shipped back to the client.
type ReplyItem struct {
	Item oodb.Item
	// Version is the server-side version at send time (error oracle).
	Version uint64
	// Refresh is the refresh-time estimate shipped with the item (§3.2);
	// the client starts the lease when it caches the copy.
	Refresh float64
	// Prefetched marks items the client did not ask for (HC and OC extra
	// attributes beyond the request).
	Prefetched bool
}

// Entry is the cache entry the item becomes when it is installed at time
// now: the lease starts at installation, not at send time.
func (it ReplyItem) Entry(now float64) core.Entry {
	return core.Entry{Version: it.Version, ExpiresAt: now + it.Refresh, FetchedAt: now}
}

// Reply is the downstream result message.
type Reply struct {
	Items []ReplyItem
}

// WireSize returns the downstream message size in bytes.
func (r Reply) WireSize() int { return WireSizeItems(r.Items) }

// WireSizeItems returns the downstream wire size of a reply carrying the
// given items (used by the timeout heuristic after shedding).
func WireSizeItems(items []ReplyItem) int {
	size := network.HeaderSize
	for _, it := range items {
		size += network.ReplyEntrySize(it.Item)
	}
	return size
}

// Server is the database server simulation entity.
type Server struct {
	kernel *sim.Kernel
	origin *coherence.Origin // database, oracle, write histories
	buf    *buffer.LRU[oodb.OID, struct{}]
	disk   *sim.Resource

	updateProb    float64
	updateRnd     *rng.Stream
	prefetchKappa float64

	// heat is the attribute access profile of every client that has sent
	// an HC request, indexed by ClientID-heatLo. A cell's clients hold a
	// dense ID range, so the table spans the lowest to the highest ID seen.
	heat   []clientHeat
	heatLo int

	// group collects distinct-OID orders; it is only touched between waits,
	// so clients share it, and an order needed across a wait is kept as the
	// returned slice.
	group workload.Grouping
	// attrBits holds per-distinct-OID shipped attribute bitmaps, indexed in
	// step with the current distinct-OID order (used only between waits).
	attrBits []uint16
	// updateAttrs backs one write event's attribute list.
	updateAttrs []oodb.AttrID
	// prefetchBuf backs prefetchSet's result; consumed before the next call.
	prefetchBuf []oodb.AttrID

	// Persistent tier (nil when the run has none). storeKey/storeVal are
	// reusable buffers for key rendering and lazy payload materialization;
	// touched only between waits.
	store       StorageTier
	storeKey    []byte
	storeVal    []byte
	storeGets   uint64 // buffer misses served by an existing tier record
	storePuts   uint64 // objects materialized into the tier on first touch
	storeErrors uint64 // tier I/O failures (the run continues on the model)

	queriesServed  uint64
	diskReads      uint64
	bufferHits     uint64
	updatesApplied uint64

	// obsRT, when observability is enabled, receives every refresh-time
	// estimate the server ships (the RT = d̄ + β·s distribution of §3.2).
	// Nil when disabled: Observe on a nil histogram is a free no-op, so
	// the reply hot path pays nothing.
	obsRT *obs.Histogram

	// writeLog, when set, receives every applied attribute write — the feed
	// for IR-over-broadcast report assembly. Nil when no broadcaster is
	// attached, so the update path pays one predictable branch.
	writeLog func(it oodb.Item, now float64)
}

// reqScratch is one Call's reusable request-processing storage. A Call
// waits at disk/memory holds, so buffers that live across a wait (the
// staging order, the reply items) belong to the call, not the server.
type reqScratch struct {
	order     []oodb.OID  // distinct accessed OIDs, first-seen order
	needOrder []oodb.OID  // distinct needed OIDs, first-seen order
	items     []ReplyItem // reply assembly; consumed before the next request
}

// clientHeat tracks one client's primitive-attribute access counts, from
// which the HC prefetch set is derived.
type clientHeat struct {
	counts [oodb.NumPrimAttrs]uint64
	total  uint64
}

// New builds a server.
func New(cfg Config) *Server {
	if cfg.Kernel == nil || cfg.DB == nil {
		panic("server: Config requires Kernel and DB")
	}
	bufObjs := cfg.BufferObjects
	if bufObjs <= 0 {
		bufObjs = DefaultBufferObjects
	}
	kappa := cfg.PrefetchKappa
	if math.IsNaN(kappa) {
		kappa = DefaultPrefetchKappa
	}
	if cfg.UpdateProb < 0 || cfg.UpdateProb > 1 {
		panic(fmt.Sprintf("server: UpdateProb %v out of [0,1]", cfg.UpdateProb))
	}
	return &Server{
		kernel:        cfg.Kernel,
		origin:        coherence.NewOrigin(cfg.DB, cfg.Beta),
		buf:           buffer.NewLRU[oodb.OID, struct{}](bufObjs),
		disk:          sim.NewResource(cfg.Kernel, "server-disk", 1),
		updateProb:    cfg.UpdateProb,
		updateRnd:     rng.Derive(cfg.Seed, 0x5e7e7),
		prefetchKappa: kappa,
		store:         cfg.Storage,
	}
}

// Oracle exposes the perfect-knowledge error oracle shared with clients.
func (s *Server) Oracle() *coherence.Oracle { return s.origin.Oracle() }

// SetWriteObserver installs fn to be called with every applied attribute
// write (item, virtual time). The IR-over-broadcast scheme uses this to
// feed its trailing update window. Pass nil to detach.
func (s *Server) SetWriteObserver(fn func(it oodb.Item, now float64)) { s.writeLog = fn }

// stageDurable mirrors a buffer miss onto the persistent tier: read the
// object's record, writing it on first touch (the tier fills lazily with
// the workload's actual working set, so a 1M-object database only pays
// disk for what the heat distribution reaches). Tier failures are counted
// and the run continues on the modeled disk — the tier is a measured side
// effect, never a simulated dependency.
func (s *Server) stageDurable(oid oodb.OID) {
	s.storeKey = append(s.storeKey[:0], 'o', ':')
	s.storeKey = strconv.AppendUint(s.storeKey, uint64(oid), 10)
	key := string(s.storeKey)
	_, ok, err := s.store.Get(key)
	if err != nil {
		s.storeErrors++
		return
	}
	if ok {
		s.storeGets++
		return
	}
	if err := s.store.Put(key, s.objectPayload(oid)); err != nil {
		s.storeErrors++
		return
	}
	s.storePuts++
}

// objectPayload renders oid's on-disk image: ObjectSize bytes filled with
// a deterministic oid-derived pattern, reusing one scratch buffer. The
// engine copies what it appends, so reuse is safe.
func (s *Server) objectPayload(oid oodb.OID) []byte {
	if s.storeVal == nil {
		s.storeVal = make([]byte, oodb.ObjectSize)
	}
	for i := 0; i+8 <= len(s.storeVal); i += 8 {
		binary.LittleEndian.PutUint64(s.storeVal[i:], uint64(oid)*0x9e3779b97f4a7c15+uint64(i))
	}
	return s.storeVal
}

// applyUpdates flips the per-object update coin and applies one write
// event — every attribute the query read on the object — per object that
// comes up. order is the distinct-OID first-seen order over req.Accesses.
func (s *Server) applyUpdates(now float64, req Request, order []oodb.OID) {
	if s.updateProb == 0 {
		return
	}
	for _, oid := range order {
		if !s.updateRnd.Bool(s.updateProb) {
			continue
		}
		s.updatesApplied++
		s.updateAttrs = workload.AttrsOf(req.Accesses, oid, s.updateAttrs[:0])
		s.origin.Write(oid, s.updateAttrs, now, s.writeLog)
	}
}

// assembleReply builds the downstream items per granularity (§3.1.2–3.1.4).
// The returned Items alias sc.items: the client consumes the reply (copies
// what it keeps) before issuing its next request.
func (s *Server) assembleReply(req Request, sc *reqScratch) Reply {
	now := s.kernel.Now()
	items := sc.items[:0]

	switch req.Granularity {
	case core.AttributeCaching:
		// AC: only the requested attributes of qualified objects.
		for _, rd := range req.Need {
			items = append(items, s.replyItem(oodb.AttrItem(rd.OID, rd.Attr), now, false))
		}

	case core.ObjectCaching, core.NoCache:
		// OC: push all attributes of each qualified object — shipped as
		// whole objects. NC ships the same way (a conventional object
		// server); the client just has nowhere durable to cache them.
		sc.needOrder = s.group.Objects(req.Need, sc.needOrder[:0])
		for _, oid := range sc.needOrder {
			items = append(items, s.replyItem(oodb.ObjectItem(oid), now, false))
		}

	case core.HybridCaching:
		// HC: requested attributes plus the prefetch set — attributes of
		// qualified objects whose access probability clears the threshold.
		// Shipped-set dedup uses one attribute bitmap per distinct needed
		// OID, indexed in step with needOrder via the grouping's index.
		prefetch := s.prefetchSet(req.ClientID)
		sc.needOrder = s.group.Objects(req.Need, sc.needOrder[:0])
		if cap(s.attrBits) < len(sc.needOrder) {
			s.attrBits = make([]uint16, len(sc.needOrder))
		}
		bits := s.attrBits[:len(sc.needOrder)]
		for i := range bits {
			bits[i] = 0
		}
		for _, rd := range req.Need {
			i := s.group.Index(rd.OID)
			bit := uint16(1) << rd.Attr
			if bits[i]&bit != 0 {
				continue
			}
			bits[i] |= bit
			items = append(items, s.replyItem(oodb.AttrItem(rd.OID, rd.Attr), now, false))
		}
		for i, oid := range sc.needOrder {
			for _, attr := range prefetch {
				bit := uint16(1) << attr
				if bits[i]&bit != 0 {
					continue
				}
				bits[i] |= bit
				items = append(items, s.replyItem(oodb.AttrItem(oid, attr), now, true))
			}
		}
	}
	sc.items = items
	return Reply{Items: items}
}

// replyItem prices one shipped copy of it at the origin.
func (s *Server) replyItem(it oodb.Item, now float64, prefetched bool) ReplyItem {
	version, rt := s.origin.Grant(it, now)
	s.obsRT.Observe(rt)
	return ReplyItem{Item: it, Version: version, Refresh: rt, Prefetched: prefetched}
}

// recordHeat folds an HC query's attribute accesses into the client's
// heat profile.
func (s *Server) recordHeat(req Request) {
	id := req.ClientID
	switch {
	case len(s.heat) == 0:
		s.heat, s.heatLo = make([]clientHeat, 1), id
	case id < s.heatLo:
		// Grow downwards by at least the table's length, so clients
		// arriving in any ID order cost amortized O(1) each.
		lo := min(id, max(0, s.heatLo-len(s.heat)))
		grown := make([]clientHeat, s.heatLo-lo+len(s.heat))
		copy(grown[s.heatLo-lo:], s.heat)
		s.heat, s.heatLo = grown, lo
	case id-s.heatLo >= len(s.heat):
		s.heat = append(s.heat, make([]clientHeat, id-s.heatLo+1-len(s.heat))...)
	}
	h := &s.heat[id-s.heatLo]
	for _, rd := range req.Accesses {
		if rd.Attr < oodb.NumPrimAttrs {
			h.counts[rd.Attr]++
			h.total++
		}
	}
}

// prefetchSet returns the attributes worth prefetching for the client:
// those whose observed access rate is at least μ + κ·σ across the client's
// attribute rates. With no (or too little) history the set is empty — HC
// degenerates gracefully to AC until the profile stabilizes.
func (s *Server) prefetchSet(clientID int) []oodb.AttrID {
	i := clientID - s.heatLo
	if i < 0 || i >= len(s.heat) || s.heat[i].total < prefetchMinSamples {
		return nil
	}
	h := &s.heat[i]
	var mu float64
	var rates [oodb.NumPrimAttrs]float64
	for i, c := range h.counts {
		rates[i] = float64(c) / float64(h.total)
		mu += rates[i]
	}
	mu /= oodb.NumPrimAttrs
	var variance float64
	for _, r := range rates {
		variance += (r - mu) * (r - mu)
	}
	variance /= oodb.NumPrimAttrs
	threshold := mu + s.prefetchKappa*math.Sqrt(variance)
	out := s.prefetchBuf[:0]
	for i, r := range rates {
		if r >= threshold {
			out = append(out, oodb.AttrID(i))
		}
	}
	s.prefetchBuf = out
	return out
}

// Stats bundles server-side counters for experiment logs. The Storage*
// counters are deterministic facts of the workload (how many buffer
// misses hit an existing tier record vs materialized one), not measured
// latencies — those live in the storage engine's own histograms.
type Stats struct {
	QueriesServed   uint64
	DiskReads       uint64
	BufferHits      uint64
	UpdatesApplied  uint64
	BufferHitRatio  float64
	DiskUtilization float64
	StorageGets     uint64
	StoragePuts     uint64
	StorageErrors   uint64
}

// Register wires the server's load and health into an observability
// registry: cumulative query/disk/update counters, buffer hit ratio, disk
// utilization, and the distribution of refresh-time estimates shipped to
// clients (series server.rt_p50 / server.rt_p90 track its quantiles over
// virtual time). No-op on a disabled registry; when disabled the reply
// path's Observe calls hit a nil histogram and cost nothing.
func (s *Server) Register(reg *obs.Registry) {
	if !reg.Enabled() {
		return
	}
	reg.Gauge("server.queries", func() float64 { return float64(s.queriesServed) })
	reg.Gauge("server.disk_reads", func() float64 { return float64(s.diskReads) })
	reg.Gauge("server.updates", func() float64 { return float64(s.updatesApplied) })
	reg.Gauge("server.buffer_hit_ratio", s.buf.HitRatio)
	reg.Gauge("server.disk_utilization", s.disk.Utilization)
	// Refresh times span milliseconds (hot items under heavy update load)
	// to the full run horizon (items never observed written).
	s.obsRT = reg.Histogram("server.refresh_time_s", 1e-3, 1e5)
	reg.Gauge("server.rt_p50", func() float64 { return s.obsRT.Quantile(0.5) })
	reg.Gauge("server.rt_p90", func() float64 { return s.obsRT.Quantile(0.9) })
}

// Stats returns a snapshot of server counters.
func (s *Server) Stats() Stats {
	return Stats{
		QueriesServed:   s.queriesServed,
		DiskReads:       s.diskReads,
		BufferHits:      s.bufferHits,
		UpdatesApplied:  s.updatesApplied,
		BufferHitRatio:  s.buf.HitRatio(),
		DiskUtilization: s.disk.Utilization(),
		StorageGets:     s.storeGets,
		StoragePuts:     s.storePuts,
		StorageErrors:   s.storeErrors,
	}
}
