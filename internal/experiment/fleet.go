package experiment

import (
	"fmt"
	"math"

	"repro/internal/broadcast"
	"repro/internal/client"
	"repro/internal/coherence"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/replacement"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Run executes one simulation and returns its measurements; runs are
// deterministic in (Config, Seed). It is the only way a world is built:
// max(1, cfg.Cells) cells, each with its own 19.2 Kbps uplink/downlink
// pair and a contiguous slice of the client fleet. One cell is the paper's
// single-server system; several cells each own a range partition of the
// database (via internal/federation). An invalid cfg panics with the
// Validate error — callers holding outside input validate first.
//
// Sharding model: every cell runs its own discrete-event kernel containing
// a full federation.Cluster over an identically-derived database (same
// RelSeed), with the cell's clients attached to their cell's contact
// server. Reads that land on another cell's partition pay backbone latency
// and bandwidth against that cell's local mirror of the remote node — the
// mirrors share seeds, so partition contents, refresh estimators, and
// update streams evolve identically everywhere while each cell's kernel
// stays self-contained. That keeps cells embarrassingly parallel: they run
// on the Runner worker pool and their outcomes merge in cell order, so
// results are byte-identical at any worker count.
//
// Determinism: clients keep their fleet-global IDs in every rng.Derive
// call and disconnection schedules are built once for the whole fleet,
// so a client's private streams do not depend on the cell layout; only
// channel contention and partition placement do.
func Run(cfg Config) Result {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
	cfg = Defaults(cfg)

	// Disconnection schedules span the whole fleet so a client's outage
	// windows are independent of the cell layout.
	schedules := workload.BuildSchedules(workload.DisconnectConfig{
		NumClients:          cfg.NumClients,
		DisconnectedClients: cfg.DisconnectedClients,
		DurationHours:       cfg.DisconnectHours,
		Days:                int(math.Ceil(cfg.Days)),
		Seed:                cfg.Seed,
	})

	// A Tracer or an obs.Registry is shared mutable state; keep those runs
	// serial (cell order) so records and samples stay deterministic.
	workers := defaultWorkers
	if cfg.Tracer != nil || cfg.Obs != nil {
		workers = 1
	}
	outs := make([]cellOutcome, cfg.cells())
	Runner{Workers: workers}.ForEach(len(outs), func(c int) {
		outs[c] = runCell(cfg, c, schedules)
	})
	return mergeCells(cfg, outs)
}

// cells is the number of cells the run builds: zero means one.
func (c Config) cells() int { return max(1, c.Cells) }

// cellFaultConfig is the fault model configuration of one cell's channel
// pair. The single-server system keeps FaultConfig's stream; in a
// partitioned fleet each cell's radio environment draws from its own
// substream, because bursts in one cell must not synchronize outages
// everywhere. Every faulted golden pins one rule or the other, so one cell
// is not "cell 0 of a fleet" here.
func (c Config) cellFaultConfig(cell int) network.FaultConfig {
	fc := c.FaultConfig()
	if c.cells() > 1 {
		fc.Seed = rng.Derive(c.Seed, 0xfa170000+uint64(cell)).Uint64()
	}
	return fc
}

// cellOutcome is the raw measurement state one cell hands back for the
// deterministic cell-order merge. It holds values only: nothing in it
// reaches the cell's kernel, clients, servers or caches, so a finished
// cell's world is garbage before the merge, and a fleet's footprint is the
// cells it is running plus these per-client accounts.
type cellOutcome struct {
	accounts []*metrics.Client

	upUtil, downUtil float64
	downWait         float64
	downMsgs         uint64
	upStats          network.FaultStats
	downStats        network.FaultStats

	server    server.Stats // counters summed over the cell's nodes
	diskSum   float64      // per-node disk utilizations, for the merged mean
	diskN     int
	tier      TierStats
	events    uint64
	bbBytes   uint64
	bbMsgs    uint64
	relayHit  uint64
	relayMis  uint64
	relayed   uint64
	irReports uint64
	irBytes   uint64
}

// runCell builds and runs one cell's kernel: the origin, the cell's channel
// pair and fault models, and clients [lo, hi) of the fleet.
func runCell(cfg Config, cell int, schedules []*network.Schedule) cellOutcome {
	lo, hi := cellBounds(cfg.NumClients, cfg.cells(), cell)
	k := sim.NewKernel()
	db := NewDatabase(cfg)

	// The origin is where one cell and several genuinely differ. One cell
	// is the paper's server, talked to directly and optionally backed by
	// the persistent tier; routing it through a 1-node cluster would add a
	// contact-server hop to every request. Several cells are a full
	// cluster mirror with this cell's contact server in front. Either way
	// nodes lists every server in the kernel, so observers, stats pooling
	// and observability below are one loop.
	var (
		nodes   []*server.Server
		backend client.Backend
		cluster *federation.Cluster
		store   *storage.Store
	)
	if cfg.cells() == 1 {
		srvCfg := server.Config{
			Kernel:        k,
			DB:            db,
			BufferObjects: cfg.ServerBufferObjects(),
			Beta:          cfg.Beta,
			UpdateProb:    cfg.UpdateProb,
			PrefetchKappa: cfg.PrefetchKappa,
			Seed:          cfg.Seed,
		}
		if store = openStorageTier(cfg); store != nil {
			srvCfg.Storage = store
		}
		srv := server.New(srvCfg)
		nodes, backend = []*server.Server{srv}, srv
	} else {
		cluster = federation.New(federation.Config{
			Kernel:     k,
			DB:         db,
			NumServers: cfg.Cells,
			// The paper's 25%-of-database server buffer is split across
			// the partitions.
			BufferObjects:        max(1, cfg.ServerBufferObjects()/cfg.Cells),
			Beta:                 cfg.Beta,
			UpdateProb:           cfg.UpdateProb,
			PrefetchKappa:        cfg.PrefetchKappa,
			Seed:                 cfg.Seed,
			RelayCacheObjects:    cfg.RelayObjects,
			BackboneBandwidthBps: cfg.BackboneBandwidthBps,
			BackboneLatency:      cfg.BackboneLatency,
		})
		for i := 0; i < cluster.NumServers(); i++ {
			nodes = append(nodes, cluster.Node(i))
		}
		backend = cluster.Contact(cell)
	}
	up := network.NewChannel(k, "uplink", network.WirelessBandwidthBps)
	down := network.NewChannel(k, "downlink", network.WirelessBandwidthBps)

	// Fault injection (Experiment #7): one model per channel direction,
	// shared by the cell's clients — burst outages hit everyone sending
	// through the cell at once. NewFaultModel returns nil when disabled.
	faultCfg := cfg.cellFaultConfig(cell)
	upFaults := network.NewFaultModel(faultCfg, 1)
	downFaults := network.NewFaultModel(faultCfg, 2)

	policyFactory, _ := replacement.Parse(cfg.Policy) // Validate parsed it
	var program *broadcast.Program
	if cfg.BroadcastAttrs > 0 {
		pool := workload.SharedPool(cfg.NumObjects, cfg.Seed, cfg.SharedHotObjects)
		program = broadcast.New(
			broadcast.HotAttrItems(pool, cfg.BroadcastAttrs),
			network.WirelessBandwidthBps, 0)
	}

	clients, ms := buildClients(clientEnv{
		kernel:     k,
		cfg:        cfg,
		db:         db,
		backend:    backend,
		up:         up,
		down:       down,
		upFaults:   upFaults,
		downFaults: downFaults,
		schedules:  schedules,
		program:    program,
		policy:     policyFactory,
	}, lo, hi)

	// IR-over-broadcast runs one broadcaster per cell: it watches writes
	// applied on every node in the kernel (exactly what the cell's oracle
	// sees) and reports to the cell's clients over a dedicated broadcast
	// channel.
	var irb *irbState
	if cfg.Coherence == coherence.IRBroadcastStrategy {
		window := broadcast.NewUpdateWindow(cfg.IRWindow)
		for _, n := range nodes {
			n.SetWriteObserver(window.Observe)
		}
		irCh := network.NewChannel(k, "ir-broadcast", network.WirelessBandwidthBps)
		irFaults := network.NewFaultModel(faultCfg, 3)
		irb = startIRBBroadcaster(k, cfg, window, irCh, irFaults, clients, schedules[lo:hi])
	}

	// Observability (obs.go): wire every entity into the registry and
	// attach its virtual-time sampler before the first event fires, so all
	// series start at t = 0. Instrumented fleets sample cell 0 only: one
	// registry cannot span kernels whose virtual clocks advance
	// independently, so the report shows one representative cell plus its
	// cluster-wide backbone view.
	if cfg.Obs.Enabled() && cell == 0 {
		if cluster != nil {
			cluster.Register(cfg.Obs, "backbone")
		}
		registerObservables(cfg, nodes[cell], up, down, upFaults, downFaults, program, clients, ms)
		if store != nil {
			store.Register(cfg.Obs)
		}
		cfg.Obs.Attach(k, cfg.Horizon())
	} else if store != nil {
		// Uninstrumented runs still measure tier latencies: a private
		// registry (never attached, never sampled) hosts the histograms,
		// so each run's LatencySummary works at any -parallel width
		// without forcing the batch serial the way a shared cfg.Obs would.
		store.Register(obs.New(0))
	}

	k.RunAll()
	k.Drain()

	out := cellOutcome{
		accounts:  ms,
		upUtil:    up.Utilization(),
		downUtil:  down.Utilization(),
		downWait:  down.MeanWait(),
		downMsgs:  down.Messages(),
		upStats:   upFaults.Stats(),
		downStats: downFaults.Stats(),
		events:    k.Steps(),
	}
	if irb != nil {
		out.irReports, out.irBytes = irb.reports, irb.reportBytes
	}
	for _, n := range nodes {
		st := n.Stats()
		addCounters(&out.server, st)
		out.diskSum += st.DiskUtilization
		out.diskN++
	}
	if cluster != nil {
		out.bbBytes, out.bbMsgs = cluster.BackboneTraffic()
		out.relayHit, out.relayMis, out.relayed = cluster.RelayTotals()
	}
	if store != nil {
		es := store.Stats()
		g50, g99, p50, p99 := store.LatencySummary()
		out.tier = TierStats{
			DSN:  cfg.StorageDSN,
			Gets: out.server.StorageGets, Puts: out.server.StoragePuts, Errors: out.server.StorageErrors,
			Keys: es.Keys, DiskBytes: es.DiskBytes,
			GetP50ms: g50, GetP99ms: g99, PutP50ms: p50, PutP99ms: p99,
		}
		if err := store.Close(); err != nil {
			panic(fmt.Sprintf("experiment: storage tier close: %v", err))
		}
	}
	return out
}

// mergeCells folds the per-cell outcomes, in cell order, into one Result:
// the client accounts pooled in client order, message-weighted downlink
// wait, and counter sums with ratios recomputed from the merged numerators
// and denominators. The pooled server figures reproduce a single server's
// own bit for bit: the server probes its buffer at exactly the one site
// that counts a hit or a disk read, so BufferHits/(BufferHits+DiskReads) is
// its buffer's hit ratio, and a mean over one value is that value.
func mergeCells(cfg Config, outs []cellOutcome) Result {
	var pool metrics.Account
	var upUtil, downUtil, waitSum float64
	var downMsgs uint64
	var diskSum float64
	var diskN int
	res := Result{Config: cfg, PerClient: make([]PerClient, 0, cfg.NumClients)}
	for _, out := range outs {
		for _, m := range out.accounts {
			pool.Add(&m.Account)
			res.PerClient = append(res.PerClient, PerClient{
				HitRatio:     m.HitRatio(),
				ErrorRate:    m.ErrorRate(),
				MeanResponse: m.MeanResponse(),
				Queries:      m.Queries,
			})
		}
		upUtil += out.upUtil
		downUtil += out.downUtil
		waitSum += out.downWait * float64(out.downMsgs)
		downMsgs += out.downMsgs
		addCounters(&res.Server, out.server)
		diskSum += out.diskSum
		diskN += out.diskN
		res.Events += out.events
		res.BackboneBytes += out.bbBytes
		res.BackboneMessages += out.bbMsgs
		res.RelayHits += out.relayHit
		res.RelayMisses += out.relayMis
		res.RelayedReads += out.relayed
		res.FramesLost += out.upStats.Lost + out.downStats.Lost
		res.FramesCorrupted += out.upStats.Corrupted + out.downStats.Corrupted
		res.IRReports += out.irReports
		res.IRReportBytes += out.irBytes
	}
	if probes := res.Server.BufferHits + res.Server.DiskReads; probes > 0 {
		res.Server.BufferHitRatio = float64(res.Server.BufferHits) / float64(probes)
	}
	res.Server.DiskUtilization = diskSum / float64(diskN)
	res.StorageTier = outs[0].tier // set on single-server runs only

	res.setAccount(pool)
	cells := float64(len(outs))
	res.UplinkUtilization = upUtil / cells
	res.DownlinkUtilization = downUtil / cells
	switch {
	case len(outs) == 1:
		// (w*n)/n == w is not an IEEE identity: the one cell's mean is
		// taken verbatim.
		res.DownlinkMeanWait = outs[0].downWait
	case downMsgs > 0:
		res.DownlinkMeanWait = waitSum / float64(downMsgs)
	}
	return res
}

// addCounters accumulates src's counters into dst; the two ratios are
// left to the merge, which recomputes them from the pooled counters.
func addCounters(dst *server.Stats, src server.Stats) {
	dst.QueriesServed += src.QueriesServed
	dst.DiskReads += src.DiskReads
	dst.BufferHits += src.BufferHits
	dst.UpdatesApplied += src.UpdatesApplied
	dst.StorageGets += src.StorageGets
	dst.StoragePuts += src.StoragePuts
	dst.StorageErrors += src.StorageErrors
}

// cellBounds returns the half-open global-client-ID range [lo, hi) of one
// cell: a balanced split, earlier cells taking the remainder.
func cellBounds(clients, cells, cell int) (lo, hi int) {
	return cell * clients / cells, (cell + 1) * clients / cells
}
