// Package federation implements the first extension the paper's
// conclusion sketches (§6): "a mobile client might request items from
// multiple servers, possibly under different cells ... the contact server
// for a client might have to request and even cache items from other
// remote servers on behalf of the client."
//
// The database is range-partitioned across M server nodes. Every mobile
// client talks (over its cell's wireless channels) only to its cell's
// *contact server*; reads that land on another node's partition are
// relayed over a fixed backbone network, and the contact server can keep a
// lease-respecting *relay cache* of remote items so repeated remote reads
// are served within the cell.
package federation

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/replacement"
	"repro/internal/server"
	"repro/internal/sim"
)

// Backbone defaults: a fixed inter-server network is orders of magnitude
// faster than the 19.2 Kbps wireless links but not free.
const (
	// DefaultBackboneBandwidthBps is the inter-server link bandwidth.
	DefaultBackboneBandwidthBps = 10e6
	// DefaultBackboneLatency is the per-message propagation delay in
	// seconds between two server nodes.
	DefaultBackboneLatency = 0.005
)

// Config parameterizes a federation of database servers.
type Config struct {
	Kernel *sim.Kernel
	// DB is the global object space; ownership is range-partitioned
	// across NumServers nodes.
	DB         *oodb.Database
	NumServers int
	// Per-node server parameters (see server.Config). BufferObjects is
	// per node; zero derives 25% of the node's partition.
	BufferObjects int
	Beta          float64
	UpdateProb    float64
	PrefetchKappa float64
	Seed          uint64
	// RelayCacheObjects enables the contact servers' relay caches when
	// positive: each node may cache that many objects' worth of remote
	// items (with the owners' leases).
	RelayCacheObjects int
	// Backbone link parameters; zero selects the defaults above.
	BackboneBandwidthBps float64
	BackboneLatency      float64
}

// Cluster is a set of federated server nodes over one partitioned
// database.
type Cluster struct {
	db       *oodb.Database
	nodes    []*node
	latency  float64
	oracle   *coherence.Oracle
	relayCap int
}

// node is one server plus its backbone links and optional relay cache.
type node struct {
	id    int
	srv   *server.Server
	links []*network.Channel // links[j]: node -> node j (nil for self)
	relay *core.Cache        // nil when relay caching is disabled

	relayHits   uint64
	relayMisses uint64
	relayed     uint64 // reads forwarded to remote owners

	// free holds the processing state of finished contact requests: a
	// client has at most one request in flight, so the list is bounded by
	// the requests in flight at once, not by the clients.
	free []*contactScratch
}

// New builds a cluster. Each node gets its own disk, memory buffer,
// refresh estimators, and attribute-heat tracking (via server.New over the
// shared object space); backbone links are dedicated per ordered node
// pair.
func New(cfg Config) *Cluster {
	if cfg.Kernel == nil || cfg.DB == nil {
		panic("federation: Config requires Kernel and DB")
	}
	if cfg.NumServers < 1 {
		panic("federation: NumServers must be >= 1")
	}
	bw := cfg.BackboneBandwidthBps
	if bw == 0 {
		bw = DefaultBackboneBandwidthBps
	}
	lat := cfg.BackboneLatency
	if lat == 0 {
		lat = DefaultBackboneLatency
	}
	bufObjs := cfg.BufferObjects
	if bufObjs == 0 {
		bufObjs = cfg.DB.NumObjects() / cfg.NumServers / 4
		if bufObjs < 1 {
			bufObjs = 1
		}
	}
	c := &Cluster{
		db:       cfg.DB,
		latency:  lat,
		oracle:   coherence.NewOracle(cfg.DB),
		relayCap: cfg.RelayCacheObjects,
	}
	for i := 0; i < cfg.NumServers; i++ {
		n := &node{
			id: i,
			srv: server.New(server.Config{
				Kernel:        cfg.Kernel,
				DB:            cfg.DB,
				BufferObjects: bufObjs,
				Beta:          cfg.Beta,
				UpdateProb:    cfg.UpdateProb,
				PrefetchKappa: cfg.PrefetchKappa,
				Seed:          cfg.Seed + uint64(i)*0x9e37,
			}),
			links: make([]*network.Channel, cfg.NumServers),
		}
		if cfg.RelayCacheObjects > 0 {
			n.relay = core.NewCache(
				cfg.RelayCacheObjects*core.ItemCost(oodb.ObjectItem(0)),
				replacement.NewLRU())
		}
		c.nodes = append(c.nodes, n)
	}
	for i := range c.nodes {
		for j := range c.nodes {
			if i == j {
				continue
			}
			c.nodes[i].links[j] = network.NewChannel(cfg.Kernel,
				fmt.Sprintf("backbone-%d-%d", i, j), bw)
		}
	}
	return c
}

// NumServers returns the cluster size.
func (c *Cluster) NumServers() int { return len(c.nodes) }

// Owner returns the node owning oid (range partition).
func (c *Cluster) Owner(oid oodb.OID) int {
	return int(oid) * len(c.nodes) / c.db.NumObjects()
}

// Node exposes node i's underlying server (diagnostics and tests).
func (c *Cluster) Node(i int) *server.Server { return c.nodes[i].srv }

// Contact returns the contact-server backend for cell i; mobile clients in
// that cell plug it into client.Config.Server.
func (c *Cluster) Contact(i int) *ContactServer {
	if i < 0 || i >= len(c.nodes) {
		panic(fmt.Sprintf("federation: no cell %d in a %d-node cluster", i, len(c.nodes)))
	}
	return &ContactServer{cluster: c, home: c.nodes[i]}
}

// RelayStats reports node i's relay-cache effectiveness.
func (c *Cluster) RelayStats(i int) (hits, misses, relayedReads uint64) {
	n := c.nodes[i]
	return n.relayHits, n.relayMisses, n.relayed
}

// BackboneTraffic sums the payload shipped over every inter-node backbone
// link: total bytes and messages, both directions.
func (c *Cluster) BackboneTraffic() (bytes, messages uint64) {
	for _, n := range c.nodes {
		for _, link := range n.links {
			if link == nil {
				continue
			}
			bytes += link.BytesSent()
			messages += link.Messages()
		}
	}
	return bytes, messages
}

// RelayTotals sums the relay-cache counters across every node: cell-local
// hits, misses, and reads forwarded to remote owners.
func (c *Cluster) RelayTotals() (hits, misses, relayedReads uint64) {
	for _, n := range c.nodes {
		hits += n.relayHits
		misses += n.relayMisses
		relayedReads += n.relayed
	}
	return hits, misses, relayedReads
}

// Register wires the cluster's backbone and relay caches into an
// observability registry under the given series prefix: cumulative
// backbone bytes/messages, the mean utilization across all inter-node
// links, and the pooled relay-cache counters. No-op when reg is disabled;
// the relay/backbone hot paths carry no instrument calls, so a
// disabled-registry cluster is cost-free.
func (c *Cluster) Register(reg *obs.Registry, prefix string) {
	if !reg.Enabled() {
		return
	}
	reg.Gauge(prefix+".bytes", func() float64 {
		b, _ := c.BackboneTraffic()
		return float64(b)
	})
	reg.Gauge(prefix+".messages", func() float64 {
		_, m := c.BackboneTraffic()
		return float64(m)
	})
	reg.Gauge(prefix+".utilization", func() float64 {
		var sum float64
		var links int
		for _, n := range c.nodes {
			for _, link := range n.links {
				if link == nil {
					continue
				}
				sum += link.Utilization()
				links++
			}
		}
		if links == 0 {
			return 0
		}
		return sum / float64(links)
	})
	reg.Gauge(prefix+".relay_hits", func() float64 {
		h, _, _ := c.RelayTotals()
		return float64(h)
	})
	reg.Gauge(prefix+".relay_misses", func() float64 {
		_, m, _ := c.RelayTotals()
		return float64(m)
	})
	reg.Gauge(prefix+".relayed_reads", func() float64 {
		_, _, r := c.RelayTotals()
		return float64(r)
	})
}

// ContactServer is the client-facing backend of one cell: it serves its
// own partition directly and relays (or relay-caches) the rest.
type ContactServer struct {
	cluster *Cluster
	home    *node
}

// Oracle exposes the global perfect-knowledge oracle.
func (cs *ContactServer) Oracle() *coherence.Oracle { return cs.cluster.oracle }
