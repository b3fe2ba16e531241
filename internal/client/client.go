// Package client implements the mobile client of §3–§4: an open-loop query
// stream processed against a two-level local hierarchy (a 30-object LRU
// memory buffer over a 400-object storage cache with pluggable
// replacement), with the lease-based coherence check on every access,
// remote round trips over the shared wireless channels for misses, and
// disconnected operation on the local cache.
//
// Queries arrive on the workload's schedule whether or not the previous
// query has completed (the client queues them FIFO); response time is
// measured from scheduled arrival to completion, which is what lets the
// Bursty pattern produce the downlink-backlog response times of
// Experiment #3.
package client

import (
	"repro/internal/broadcast"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Defaults from §4 / Table 1.
const (
	// DefaultStorageObjects is the storage cache size: 20% of the
	// database, i.e. 400 objects' worth of bytes.
	DefaultStorageObjects = 400
	// DefaultMemBufferObjects is the client memory buffer: 30 objects.
	DefaultMemBufferObjects = 30
	// diskSecPerByte and memSecPerByte move one byte through local storage
	// (40 Mbps) and memory (100 Mbps).
	diskSecPerByte = 8 / network.DiskBandwidthBps
	memSecPerByte  = 8 / network.MemoryBandwidthBps
)

// Backend is the client's view of whatever answers its requests: a single
// database server (*server.Server) or a federation contact server that
// relays to remote cells (federation.ContactServer).
type Backend interface {
	// NewCall returns a resumable request invocation the client owns and
	// reuses across its queries.
	NewCall() server.RequestCall
	// Oracle exposes the perfect-knowledge error oracle.
	Oracle() *coherence.Oracle
}

// Config parameterizes one mobile client.
type Config struct {
	ID     int
	Kernel *sim.Kernel
	Server Backend
	// Up and Down are the shared wireless channels (queries upstream,
	// results downstream).
	Up, Down *network.Channel
	// Granularity selects NC/AC/OC/HC.
	Granularity core.Granularity
	// Policy is the storage-cache replacement policy; ignored (may be
	// nil) under NC.
	Policy replacement.Policy
	// StorageBytes overrides the storage cache budget when non-zero.
	StorageBytes int
	// MemBufferObjects overrides the memory buffer size when non-zero.
	MemBufferObjects int
	// Scratch is the install working memory the client's cache hierarchy
	// shares with every client run on the same goroutine, such as the
	// clients of one kernel (required).
	Scratch *core.Scratch
	// Gen produces the client's queries; Arrival schedules them.
	Gen     *workload.QueryGen
	Arrival workload.Arrival
	// Schedule holds the client's disconnection windows (nil = always
	// connected).
	Schedule *network.Schedule
	// Metrics is the client's account: every read, query, event and joule
	// it tallies (required).
	Metrics *metrics.Client
	// Seed drives the client's random draws.
	Seed uint64
	// Horizon stops query issuing at this virtual time.
	Horizon float64
	// ShedThreshold enables the paper's timeout heuristic (§5.3) when
	// positive: if a reply has queued at the downlink for longer than this
	// many seconds, its prefetched items are shed before delivery.
	ShedThreshold float64
	// Coherence selects the coherence strategy: the paper's adaptive
	// leases (default), the original fixed-duration Leases scheme, or
	// broadcast invalidation reports. Under reports cached entries never
	// expire on their own; validity is maintained by ApplyIRBroadcast.
	Coherence coherence.Strategy
	// FixedLease is the refresh duration for FixedLeaseStrategy
	// (coherence.DefaultFixedLease if zero).
	FixedLease float64
	// IRWindow is the trailing update window, in seconds, covered by each
	// IR-over-broadcast report (coherence.DefaultIRWindow if zero; used
	// only under IRBroadcastStrategy). A client whose last received report
	// is older than the window cannot bound its staleness and
	// force-revalidates its cache.
	IRWindow float64
	// Tracer receives one record per completed query (nil = no tracing).
	Tracer trace.Tracer
	// UpFaults / DownFaults attach unreliable-channel fault models to the
	// two wireless directions (nil = a perfect channel that delivers every
	// frame). Every server round trip runs the reliability layer — timeout,
	// bounded retransmission with exponential backoff, and graceful
	// degradation to stale cache copies (see retry.go and DESIGN.md §9) —
	// but only a lost or corrupted frame sets it in motion, so with both
	// nil the round trip is the §4 flow.
	UpFaults, DownFaults *network.FaultModel
	// Retry tunes the reliability layer; zero fields select the defaults.
	// Inert on a perfect channel, where no attempt fails.
	Retry RetryConfig
	// Broadcast is an optional push-based dissemination program (§1 of
	// the paper): reads covered by the program are answered from the air
	// instead of the point-to-point channels.
	Broadcast *broadcast.Program
}

// Client is one simulated mobile host.
type Client struct {
	id          int
	kernel      *sim.Kernel
	srv         Backend
	oracle      *coherence.Oracle
	up, down    *network.Channel
	granularity core.Granularity

	local *core.Hierarchy // memory buffer over the storage cache

	gen     *workload.QueryGen
	arrival workload.Arrival
	sched   *network.Schedule
	rnd     *rng.Stream
	m       *metrics.Client
	horizon float64

	shedThreshold float64

	coherenceMode coherence.Strategy
	fixedLease    float64
	tracer        trace.Tracer
	bcast         *broadcast.Program

	// IR-over-broadcast state (IRBroadcastStrategy): the window each report
	// covers and the time of the last successfully received report.
	irWindow   float64
	irLastGood float64

	// Cooperative lookup state: the client's cell-local peer group (set by
	// SetPeers; nil = cooperation off), its own index in it, how many peers
	// a miss scans, and the staged exchange plan.
	peers          []*Client
	peerSelf       int
	peerScan       int
	peerGot        []peerCopy
	peerProbeBytes int
	peerReplyBytes int

	// Reliability layer (retry.go); active only when a fault model is
	// attached to at least one channel direction.
	upFaults, downFaults *network.FaultModel
	retry                RetryConfig
	retryRnd             *rng.Stream
	replyEstimate        int // running reply-size estimate for the timeout

	// Per-query scratch buffers. A client processes one query at a time,
	// so these are reused round after round instead of allocating on every
	// query; each is consumed before the next query starts.
	scratchQuery workload.Query
	scratchNeed  []workload.ReadOp
	scratchAir   []oodb.Item
	scratchKept  []server.ReplyItem
}

// New builds a client.
func New(cfg Config) *Client {
	if cfg.Kernel == nil || cfg.Server == nil || cfg.Up == nil || cfg.Down == nil {
		panic("client: Config requires Kernel, Server, Up, Down")
	}
	if cfg.Gen == nil || cfg.Arrival == nil || cfg.Metrics == nil || cfg.Scratch == nil {
		panic("client: Config requires Gen, Arrival, Metrics, Scratch")
	}
	if !cfg.Granularity.Valid() {
		panic("client: invalid granularity")
	}
	if cfg.Horizon <= 0 {
		panic("client: Horizon must be positive")
	}

	storageBytes := cfg.StorageBytes
	if storageBytes == 0 {
		storageBytes = DefaultStorageObjects * core.ItemCost(oodb.ObjectItem(0))
	}
	memObjs := cfg.MemBufferObjects
	if memObjs == 0 {
		memObjs = DefaultMemBufferObjects
	}

	sched := cfg.Schedule
	if sched == nil {
		sched = &network.Schedule{}
	}
	fixedLease := cfg.FixedLease
	if fixedLease == 0 {
		fixedLease = coherence.DefaultFixedLease
	}
	if fixedLease < 0 {
		panic("client: FixedLease must be positive")
	}
	irWindow := cfg.IRWindow
	if irWindow == 0 {
		irWindow = coherence.DefaultIRWindow
	}
	if irWindow < 0 {
		panic("client: IRWindow must be positive")
	}

	return &Client{
		id:            cfg.ID,
		kernel:        cfg.Kernel,
		srv:           cfg.Server,
		oracle:        cfg.Server.Oracle(),
		up:            cfg.Up,
		down:          cfg.Down,
		granularity:   cfg.Granularity,
		local:         core.NewHierarchy(cfg.Granularity, storageBytes, cfg.Policy, memObjs, cfg.Scratch),
		gen:           cfg.Gen,
		arrival:       cfg.Arrival,
		sched:         sched,
		rnd:           rng.Derive(cfg.Seed, 0xc11e47+uint64(cfg.ID)),
		m:             cfg.Metrics,
		horizon:       cfg.Horizon,
		shedThreshold: cfg.ShedThreshold,
		coherenceMode: cfg.Coherence,
		fixedLease:    fixedLease,
		irWindow:      irWindow,
		tracer:        cfg.Tracer,
		bcast:         cfg.Broadcast,
		upFaults:      cfg.UpFaults,
		downFaults:    cfg.DownFaults,
		retry:         cfg.Retry.withDefaults(),
		retryRnd:      rng.Derive(cfg.Seed, 0x4e7247+uint64(cfg.ID)),
		replyEstimate: DefaultReplyEstimateBytes,
	}
}

// Store exposes the storage cache (nil under NC) for diagnostics.
func (c *Client) Store() *core.Cache { return c.local.Storage() }

// Register wires the client's cache health and radio cost into an
// observability registry under the given series prefix: storage-cache
// occupancy (bytes and fraction of capacity), cumulative evictions and
// insertions under the client's replacement policy, the fraction of cached
// items still inside their lease, and radio energy. Under NC (no storage
// cache) only the energy gauge is registered. No-op on a disabled registry.
func (c *Client) Register(reg *obs.Registry, prefix string) {
	if !reg.Enabled() {
		return
	}
	reg.Gauge(prefix+".energy_j", func() float64 { return c.m.RadioEnergy })
	if c.coherenceMode == coherence.IRBroadcastStrategy {
		reg.Gauge(prefix+".ir_reports", func() float64 { return float64(c.m.Events[metrics.IRReport]) })
		reg.Gauge(prefix+".ir_missed", func() float64 { return float64(c.m.Events[metrics.IRMiss]) })
		reg.Gauge(prefix+".forced_reval", func() float64 { return float64(c.m.Events[metrics.ForcedReval]) })
	}
	if c.peerScan > 0 {
		reg.Gauge(prefix+".peer_hits", func() float64 { return float64(c.m.Peer) })
		reg.Gauge(prefix+".peer_misses", func() float64 { return float64(c.m.Events[metrics.PeerMiss]) })
	}
	st := c.local.Storage()
	if st == nil {
		return
	}
	reg.Gauge(prefix+".cache_bytes", func() float64 { return float64(st.UsedBytes()) })
	reg.Gauge(prefix+".cache_occupancy", func() float64 {
		return float64(st.UsedBytes()) / float64(st.CapacityBytes())
	})
	reg.Gauge(prefix+".cache_items", func() float64 { return float64(st.Len()) })
	reg.Gauge(prefix+".evictions", func() float64 { return float64(st.Evictions()) })
	reg.Gauge(prefix+".insertions", func() float64 { return float64(st.Insertions()) })
	reg.Gauge(prefix+".valid_fraction", func() float64 {
		return st.ValidFraction(c.kernel.Now())
	})
}

// containsItem reports whether items holds it; the slices involved are a
// handful of entries, where a linear scan beats allocating a set.
func containsItem(items []oodb.Item, it oodb.Item) bool {
	for _, x := range items {
		if x == it {
			return true
		}
	}
	return false
}

// installReply caches a delivered reply's items and records the served
// reads as fetched.
func (cm *clientMachine) installReply(now float64) {
	c := cm.c
	for _, item := range cm.items {
		entry := item.Entry(now)
		switch c.coherenceMode {
		case coherence.IRBroadcastStrategy:
			// Validity is maintained by broadcast reports, not leases.
			entry.ExpiresAt = coherence.NoExpiry
		case coherence.FixedLeaseStrategy:
			// The original Leases scheme: one duration for every item.
			entry.ExpiresAt = now + c.fixedLease
		}
		c.local.Stage(item.Item, entry, item.Prefetched)
	}
	c.local.Commit(now)
	for range cm.need {
		cm.record(metrics.Outcome{Kind: metrics.Fetched})
	}
}
