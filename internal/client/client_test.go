package client

import (
	"math"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/oodb"
	"repro/internal/replacement"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// rig bundles a one-client simulation fixture.
type rig struct {
	k      *sim.Kernel
	db     *oodb.Database
	srv    *server.Server
	up     *network.Channel
	down   *network.Channel
	m      *metrics.Client
	client *Client
}

func newRig(t *testing.T, g core.Granularity, updateProb float64) *rig {
	t.Helper()
	k := sim.NewKernel()
	db := oodb.New(oodb.Config{NumObjects: 100, RelSeed: 1})
	srv := server.New(server.Config{Kernel: k, DB: db, UpdateProb: updateProb, Seed: 5})
	up := network.NewChannel(k, "up", network.WirelessBandwidthBps)
	down := network.NewChannel(k, "down", network.WirelessBandwidthBps)
	m := &metrics.Client{}
	var pol replacement.Policy
	if g != core.NoCache {
		pol = replacement.NewLRU()
	}
	heat := workload.NewSkewedHeat(100, 1)
	gen := workload.NewQueryGen(workload.QueryGenConfig{
		Kind: workload.Associative, Heat: heat, DB: db, Selectivity: 5,
	})
	c := New(Config{
		ID: 0, Kernel: k, Server: srv, Up: up, Down: down,
		Granularity: g, Policy: pol,
		Gen: gen, Arrival: workload.NewPoisson(0.01),
		Scratch: new(core.Scratch), Metrics: m, Seed: 1, Horizon: 1e6,
	})
	return &rig{k: k, db: db, srv: srv, up: up, down: down, m: m, client: c}
}

// query builds a deterministic query over the given oids reading attr 0.
func query(idx uint64, oids ...int) *workload.Query {
	q := &workload.Query{Index: idx, Kind: workload.Associative}
	for _, oid := range oids {
		q.Objects = append(q.Objects, oodb.OID(oid))
		q.Reads = append(q.Reads, workload.ReadOp{OID: oodb.OID(oid), Attr: 0})
	}
	return q
}

// op is one statement of a test script. It is re-entered at every wake of
// the script's machine until it reports done.
type op func(m *sim.Machine) (done bool)

// script is a machine that runs its statements in order.
type script struct{ ops []op }

func (s *script) Step(m *sim.Machine) {
	for len(s.ops) > 0 {
		if !s.ops[0](m) {
			return
		}
		s.ops = s.ops[1:]
	}
	m.Finish()
}

// exec runs the statements as one simulated process to completion.
func (r *rig) exec(ops ...op) {
	r.k.SpawnMachine("test", &script{ops: ops})
	r.k.RunAll()
}

// ask runs the hand-built query q through the client's query path, issued
// at the time the statement is reached (in place of the pump's generated
// query and arrival).
func (r *rig) ask(q *workload.Query) op {
	var cm *clientMachine
	return func(m *sim.Machine) bool {
		if cm == nil {
			cm = r.client.newMachine()
			r.client.scratchQuery = *q
			cm.scheduled = m.Now()
			cm.pc = cmProbe
		}
		return cm.processQuery(m)
	}
}

func hold(d float64) op {
	held := false
	return func(m *sim.Machine) bool {
		if held {
			return true
		}
		held = true
		m.Hold(d)
		return false
	}
}

func do(fn func()) op {
	return func(*sim.Machine) bool { fn(); return true }
}

func TestMissThenHit(t *testing.T) {
	r := newRig(t, core.AttributeCaching, 0)
	r.exec(
		r.ask(query(0, 1, 2, 3)),
		r.ask(query(1, 1, 2, 3)),
	)
	if r.m.Total() != 6 {
		t.Fatalf("accesses = %d, want 6", r.m.Total())
	}
	// First query: 3 misses; second: 3 hits.
	if hr := r.m.HitRatio(); hr != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", hr)
	}
	if r.m.Queries != 2 || r.m.Remote != 1 || r.m.Local != 1 {
		t.Fatalf("queries = %d/%d/%d", r.m.Queries, r.m.Local, r.m.Remote)
	}
	if r.up.Messages() != 1 || r.down.Messages() != 1 {
		t.Fatalf("channel messages = %d/%d, want 1/1", r.up.Messages(), r.down.Messages())
	}
}

func TestStorePopulatedPerGranularity(t *testing.T) {
	for _, g := range []core.Granularity{core.AttributeCaching, core.ObjectCaching, core.HybridCaching} {
		r := newRig(t, g, 0)
		r.exec(r.ask(query(0, 7)))
		want := core.CoverItem(g, 7, 0)
		if !r.client.Store().Contains(want) {
			t.Errorf("%v: store missing %v", g, want)
		}
	}
}

func TestNCHasNoStore(t *testing.T) {
	r := newRig(t, core.NoCache, 0)
	r.exec(
		r.ask(query(0, 1)),
		r.ask(query(1, 1)),
	)
	if r.client.Store() != nil {
		t.Fatal("NC client has a storage cache")
	}
	// Second access is a memory-buffer hit.
	if hr := r.m.HitRatio(); hr != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", hr)
	}
}

func TestNCMemoryBufferEvicts(t *testing.T) {
	r := newRig(t, core.NoCache, 0)
	// Touch 40 distinct objects: the 30-object buffer must evict.
	var ops []op
	for i := 0; i < 40; i++ {
		ops = append(ops, r.ask(query(uint64(i), i+1)))
	}
	// Object 1 was evicted (LRU): this is a miss.
	r.exec(append(ops, r.ask(query(40, 1)))...)
	if r.m.Errors != 0 {
		t.Fatal("errors in read-only run")
	}
	// 41 installs into 30 entries: objects 12..40 and the re-fetched 1 remain.
	if _, ok := r.client.local.Peek(oodb.ObjectItem(11)); ok {
		t.Fatal("memory buffer holds more than 30 objects")
	}
	if _, ok := r.client.local.Peek(oodb.ObjectItem(12)); !ok {
		t.Fatal("memory buffer holds fewer than 30 objects")
	}
	if hits := r.m.HitRatio(); hits != 0 {
		t.Fatalf("hit ratio = %v, want 0 (all distinct + evicted)", hits)
	}
}

func TestResponseTimeDominatedByWireless(t *testing.T) {
	r := newRig(t, core.AttributeCaching, 0)
	r.exec(r.ask(query(0, 1, 2, 3)))
	// 3 attr entries + headers at 19.2kbps is ~0.1s; local would be µs.
	if rt := r.m.MeanResponse(); rt < 0.05 {
		t.Fatalf("remote response %v suspiciously fast", rt)
	}
	r2 := newRig(t, core.AttributeCaching, 0)
	collector := &trace.Collector{}
	r2.client.tracer = collector
	r2.exec(
		r2.ask(query(0, 1)),
		r2.ask(query(1, 1)),
	)
	if miss, hit := collector.Records[0], collector.Records[1]; hit.ResponseTime() >= miss.ResponseTime() {
		t.Fatal("local hit should be much faster than remote miss")
	}
}

func TestOCResponseSlowerThanAC(t *testing.T) {
	times := map[core.Granularity]float64{}
	for _, g := range []core.Granularity{core.AttributeCaching, core.ObjectCaching} {
		r := newRig(t, g, 0)
		r.exec(r.ask(query(0, 1, 2, 3, 4, 5)))
		times[g] = r.m.MeanResponse()
	}
	if times[core.ObjectCaching] <= times[core.AttributeCaching] {
		t.Fatalf("OC %v should be slower than AC %v on a cold fetch",
			times[core.ObjectCaching], times[core.AttributeCaching])
	}
}

func TestOCHitsAcrossAttributes(t *testing.T) {
	// OC caches the whole object: a later read of a *different* attribute
	// of the same object hits. Under AC it misses.
	probe := func(g core.Granularity) float64 {
		r := newRig(t, g, 0)
		q2 := workload.Query{
			Index:   1,
			Objects: []oodb.OID{1},
			Reads:   []workload.ReadOp{{OID: 1, Attr: 5}},
		}
		r.exec(
			r.ask(query(0, 1)), // reads attr 0
			r.ask(&q2),
		)
		return r.m.HitRatio()
	}
	if hrOC := probe(core.ObjectCaching); hrOC != 0.5 {
		t.Fatalf("OC cross-attribute hit ratio = %v, want 0.5", hrOC)
	}
	if hrAC := probe(core.AttributeCaching); hrAC != 0 {
		t.Fatalf("AC cross-attribute hit ratio = %v, want 0", hrAC)
	}
}

func TestDisconnectedMissUnavailable(t *testing.T) {
	r := newRig(t, core.AttributeCaching, 0)
	sched := &network.Schedule{}
	sched.AddOutage(network.Outage{Start: 0, End: 1000})
	r.client.sched = sched
	r.exec(r.ask(query(0, 1, 2)))
	if r.m.Unavailable != 2 {
		t.Fatalf("unavailable = %d, want 2", r.m.Unavailable)
	}
	if r.m.Remote != 0 || r.m.Disconnected != 1 {
		t.Fatalf("remote=%d disc=%d", r.m.Remote, r.m.Disconnected)
	}
	if r.up.Messages() != 0 {
		t.Fatal("disconnected client sent a message")
	}
}

func TestDisconnectedServesStale(t *testing.T) {
	r := newRig(t, core.AttributeCaching, 1 /* every access updates */)
	// Build a write history so leases become finite, and cache attr 0 of
	// object 1.
	var ops []op
	for i := 0; i < 6; i++ {
		ops = append(ops, r.ask(query(uint64(i), 1)), hold(50))
	}
	r.exec(ops...)
	// Now disconnect far in the future so the lease has expired, and read.
	sched := &network.Schedule{}
	sched.AddOutage(network.Outage{Start: r.k.Now(), End: r.k.Now() + 1e6})
	r.client.sched = sched
	// A foreign write makes the stale copy erroneous.
	r.db.Write(1, 0)
	errsBefore := r.m.Errors
	r.exec(
		hold(1e5), // let the lease lapse
		r.ask(query(99, 1)),
	)
	if r.m.Unavailable != 0 {
		t.Fatalf("cached stale read counted unavailable")
	}
	if r.m.Errors != errsBefore+1 {
		t.Fatalf("stale disconnected read not flagged as error (errors=%d)", r.m.Errors)
	}
}

func TestErrorsRequireForeignWrite(t *testing.T) {
	r := newRig(t, core.AttributeCaching, 0)
	r.exec(
		r.ask(query(0, 1)),
		r.ask(query(1, 1)),
	)
	if r.m.Errors != 0 {
		t.Fatalf("read-only run produced %d errors", r.m.Errors)
	}
	// Foreign write; lease is infinite (no write history at fetch time) so
	// the next read is a hit AND an error.
	r.db.Write(1, 0)
	r.exec(r.ask(query(2, 1)))
	if r.m.Errors != 1 {
		t.Fatalf("errors = %d, want 1", r.m.Errors)
	}
}

func TestExistentListSizesRequest(t *testing.T) {
	r := newRig(t, core.AttributeCaching, 0)
	var sizes []uint64
	sent := do(func() { sizes = append(sizes, r.up.BytesSent()) })
	r.exec(
		r.ask(query(0, 1, 2)),
		sent,
		// Second query: 2 hits + 1 new miss -> existent list of 2 entries.
		r.ask(query(1, 1, 2, 3)),
		sent,
	)
	first := sizes[0]
	second := sizes[1] - sizes[0]
	if second != first+2*(network.OIDSize+network.AttrRefSize) {
		t.Fatalf("request sizes %d then %d: existent list not carried", first, second)
	}
}

func TestLeaseExpiryForcesRefresh(t *testing.T) {
	r := newRig(t, core.AttributeCaching, 1)
	// Build write history: every query updates, inter-write ~100s.
	var ops []op
	for i := 0; i < 8; i++ {
		ops = append(ops, r.ask(query(uint64(i), 1)), hold(100))
	}
	// Far beyond the ~100s lease: the cached copy must be stale, so the
	// read goes remote (not a hit).
	hits := func() uint64 { return r.m.Hits }
	var hitsB, hitsA uint64
	r.exec(append(ops,
		hold(10000),
		do(func() { hitsB = hits() }),
		r.ask(query(99, 1)),
		do(func() { hitsA = hits() }),
	)...)
	if hitsA > hitsB {
		t.Fatal("expired item served as a hit instead of refreshing")
	}
}

func TestRunLoopIssuesQueries(t *testing.T) {
	r := newRig(t, core.HybridCaching, 0.1)
	r.client.horizon = 20000
	r.client.Start()
	r.k.RunAll()
	if r.m.Queries == 0 {
		t.Fatal("no queries issued by run loop")
	}
	if r.m.Total() == 0 {
		t.Fatal("no accesses recorded")
	}
	if r.k.LiveMachines() != 0 {
		t.Fatalf("client machine still live: %d", r.k.LiveMachines())
	}
}

func TestValidation(t *testing.T) {
	r := newRig(t, core.AttributeCaching, 0)
	gen := r.client.gen
	base := Config{
		Kernel: r.k, Server: r.srv, Up: r.up, Down: r.down,
		Granularity: core.AttributeCaching, Policy: replacement.NewLRU(),
		Gen: gen, Arrival: workload.NewPoisson(1),
		Scratch: new(core.Scratch), Metrics: &metrics.Client{}, Horizon: 10,
	}
	mutations := []func(c *Config){
		func(c *Config) { c.Kernel = nil },
		func(c *Config) { c.Server = nil },
		func(c *Config) { c.Up = nil },
		func(c *Config) { c.Gen = nil },
		func(c *Config) { c.Arrival = nil },
		func(c *Config) { c.Metrics = nil },
		func(c *Config) { c.Scratch = nil },
		func(c *Config) { c.Granularity = core.Granularity(9) },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.Policy = nil },
	}
	for i, mut := range mutations {
		cfg := base
		mut(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("mutation %d did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestMemBufferSizedByGranularity(t *testing.T) {
	// A storage cache of one item leaves the rest of a 40-item reply in the
	// memory buffer alone, so the surviving copies count its entries.
	survivors := func(g core.Granularity) int {
		r := newRig(t, g, 0)
		r.client = New(Config{
			ID: 0, Kernel: r.k, Server: r.srv, Up: r.up, Down: r.down,
			Granularity: g, Policy: replacement.NewLRU(),
			StorageBytes: core.ItemCost(core.CoverItem(g, 0, 0)),
			Gen:          r.client.gen, Arrival: workload.NewPoisson(0.01),
			Scratch: new(core.Scratch), Metrics: r.m, Seed: 1, Horizon: 1e6,
		})
		oids := make([]int, 40)
		for i := range oids {
			oids[i] = i + 1
		}
		r.exec(r.ask(query(0, oids...)))
		n := 0
		for _, oid := range oids {
			if _, ok := r.client.local.Peek(core.CoverItem(g, oodb.OID(oid), 0)); ok {
				n++
			}
		}
		return n
	}
	if n := survivors(core.ObjectCaching); n != DefaultMemBufferObjects {
		t.Fatalf("OC memory buffer kept %d objects, want %d", n, DefaultMemBufferObjects)
	}
	if n := survivors(core.AttributeCaching); n != 40 {
		t.Fatalf("AC memory buffer kept %d of 40 attributes; the same bytes should hold them all", n)
	}
}

func TestDeterministicReplay(t *testing.T) {
	runOnce := func() (float64, float64, uint64) {
		r := newRig(t, core.HybridCaching, 0.1)
		r.client.horizon = 50000
		r.client.Start()
		r.k.RunAll()
		return r.m.HitRatio(), r.m.MeanResponse(), r.m.Total()
	}
	h1, rt1, a1 := runOnce()
	h2, rt2, a2 := runOnce()
	if h1 != h2 || rt1 != rt2 || a1 != a2 {
		t.Fatalf("replay diverged: (%v,%v,%d) vs (%v,%v,%d)", h1, rt1, a1, h2, rt2, a2)
	}
	if math.IsNaN(h1) {
		t.Fatal("NaN hit ratio")
	}
}

// --- invalidation-report coherence (irb) -----------------------------

// irWindow is the report window of newIRRig's client.
const irWindow = 300

func newIRRig(t *testing.T) *rig {
	t.Helper()
	r := newRig(t, core.AttributeCaching, 0)
	// Rebuild the client under IR-over-broadcast coherence.
	r.client = New(Config{
		ID: 0, Kernel: r.k, Server: r.srv, Up: r.up, Down: r.down,
		Granularity: core.AttributeCaching, Policy: replacement.NewLRU(),
		Gen: r.client.gen, Arrival: workload.NewPoisson(0.01),
		Scratch: new(core.Scratch), Metrics: r.m, Seed: 1, Horizon: 1e6,
		Coherence: coherence.IRBroadcastStrategy, IRWindow: irWindow,
	})
	return r
}

func TestIREntriesNeverExpire(t *testing.T) {
	r := newIRRig(t)
	r.exec(r.ask(query(0, 1)))
	e, ok := r.client.Store().Peek(oodb.AttrItem(1, 0))
	if !ok {
		t.Fatal("item not cached")
	}
	if !e.ValidAt(1e12) {
		t.Fatalf("IR entry expires at %v; should never expire", e.ExpiresAt)
	}
}

// A report inside the window removes exactly the items it names, from
// both levels, whatever the oracle knows: the write to (2, 0) goes
// unreported and its copy stays.
func TestIRIncrementalInvalidation(t *testing.T) {
	r := newIRRig(t)
	r.exec(r.ask(query(0, 1, 2, 3)))
	r.db.Write(1, 0)
	r.db.Write(2, 0)
	named := []oodb.Item{oodb.AttrItem(1, 0), oodb.AttrItem(3, 1), oodb.AttrItem(9, 0)}
	r.client.ApplyIRBroadcast(100, named, 64)
	if _, ok := r.client.local.Peek(oodb.AttrItem(1, 0)); ok {
		t.Fatal("a reported item survived the report")
	}
	for _, oid := range []oodb.OID{2, 3} {
		if _, ok := r.client.local.Peek(oodb.AttrItem(oid, 0)); !ok {
			t.Fatalf("unreported item (%d, 0) was invalidated", oid)
		}
	}
	r.client.ApplyIRBroadcast(160, nil, 16)
	if r.client.Store().Len() != 2 {
		t.Fatalf("an empty report changed the cache: %d items, want 2", r.client.Store().Len())
	}
	if got := r.m.Events[metrics.IRReport]; got != 2 {
		t.Fatalf("IRReports = %d, want 2", got)
	}
	if got := r.m.Events[metrics.ForcedReval]; got != 0 {
		t.Fatalf("ForcedRevals = %d inside the window", got)
	}
}

// A gap longer than the window voids every lease once but keeps the
// copies, for disconnected and degraded serving.
func TestIRReportGapVoidsLeases(t *testing.T) {
	r := newIRRig(t)
	r.exec(r.ask(query(0, 1, 2, 3)))
	r.client.ApplyIRBroadcast(60, nil, 16)
	// The reports of a whole window are missed (disconnected).
	now := 60 + irWindow + 1.0
	r.client.ApplyIRBroadcast(now, nil, 16)
	if got := r.m.Events[metrics.ForcedReval]; got != 1 {
		t.Fatalf("ForcedRevals = %d, want 1", got)
	}
	if r.client.Store().Len() != 3 {
		t.Fatalf("the gap dropped copies: %d items, want 3", r.client.Store().Len())
	}
	for oid := oodb.OID(1); oid <= 3; oid++ {
		e, ok := r.client.local.Peek(oodb.AttrItem(oid, 0))
		if !ok || e.ValidAt(now) {
			t.Fatalf("object %d after the gap: cached %v, lease valid %v; want an expired copy", oid, ok, ok && e.ValidAt(now))
		}
	}
	// The next report inside the window revalidates nothing more.
	r.client.ApplyIRBroadcast(now+60, nil, 16)
	if got := r.m.Events[metrics.ForcedReval]; got != 1 {
		t.Fatalf("ForcedRevals = %d after a report inside the window, want 1", got)
	}
}

func TestIRReportToLeaseClientPanics(t *testing.T) {
	r := newRig(t, core.AttributeCaching, 0)
	for name, deliver := range map[string]func(){
		"report": func() { r.client.ApplyIRBroadcast(10, nil, 16) },
		"miss":   func() { r.client.MissIRBroadcast(10, 60, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s delivered to a lease client did not panic", name)
				}
			}()
			deliver()
		}()
	}
}

func TestShedThresholdDisabledByDefault(t *testing.T) {
	r := newRig(t, core.HybridCaching, 0)
	r.exec(r.ask(query(0, 1, 2, 3)))
	if r.m.Events[metrics.ShedItem] != 0 {
		t.Fatalf("ShedItems = %d with heuristic disabled", r.m.Events[metrics.ShedItem])
	}
}

func TestFixedLeaseStrategy(t *testing.T) {
	r := newRig(t, core.AttributeCaching, 0)
	r.client = New(Config{
		ID: 0, Kernel: r.k, Server: r.srv, Up: r.up, Down: r.down,
		Granularity: core.AttributeCaching, Policy: replacement.NewLRU(),
		Gen: r.client.gen, Arrival: workload.NewPoisson(0.01),
		Scratch: new(core.Scratch), Metrics: r.m, Seed: 1, Horizon: 1e6,
		Coherence: coherence.FixedLeaseStrategy, FixedLease: 50,
	})
	r.exec(r.ask(query(0, 1)))
	fetchedAt := r.k.Now()
	e, ok := r.client.Store().Peek(oodb.AttrItem(1, 0))
	if !ok {
		t.Fatal("item not cached")
	}
	if math.Abs(e.ExpiresAt-(fetchedAt+50)) > 1e-9 {
		t.Fatalf("ExpiresAt = %v, want fetch+50 = %v", e.ExpiresAt, fetchedAt+50)
	}
}

func TestFixedLeaseValidation(t *testing.T) {
	r := newRig(t, core.AttributeCaching, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("negative FixedLease did not panic")
		}
	}()
	New(Config{
		ID: 0, Kernel: r.k, Server: r.srv, Up: r.up, Down: r.down,
		Granularity: core.AttributeCaching, Policy: replacement.NewLRU(),
		Gen: r.client.gen, Arrival: workload.NewPoisson(0.01),
		Scratch: new(core.Scratch), Metrics: &metrics.Client{}, Seed: 1, Horizon: 1e6,
		Coherence: coherence.FixedLeaseStrategy, FixedLease: -5,
	})
}

func TestTracerReceivesConsistentRecords(t *testing.T) {
	r := newRig(t, core.AttributeCaching, 0)
	collector := &trace.Collector{}
	r.client.tracer = collector
	r.exec(
		r.ask(query(0, 1, 2, 3)),
		r.ask(query(1, 1, 2, 3)),
	)
	if collector.Len() != 2 {
		t.Fatalf("records = %d, want 2", collector.Len())
	}
	first, second := collector.Records[0], collector.Records[1]
	if first.Reads != 3 || first.Hits != 0 || !first.Remote {
		t.Fatalf("first record: %+v", first)
	}
	if second.Reads != 3 || second.Hits != 3 || second.Remote {
		t.Fatalf("second record: %+v", second)
	}
	if first.RequestBytes == 0 || first.ReplyBytes == 0 {
		t.Fatal("remote record missing wire sizes")
	}
	if second.RequestBytes != 0 || second.ReplyBytes != 0 {
		t.Fatal("local record has wire sizes")
	}
	if first.ResponseTime() <= second.ResponseTime() {
		t.Fatal("remote query not slower than local")
	}
	// The trace must reconcile with the aggregate metrics.
	totalHits := first.Hits + second.Hits
	if float64(totalHits)/6 != r.m.HitRatio() {
		t.Fatalf("trace hits %d inconsistent with hit ratio %v", totalHits, r.m.HitRatio())
	}
}

// TestWarmupGatesReadsByIssueTime: a query issued just before the warm-up
// horizon and served after it has neither its query nor its reads counted,
// so the reads of the records issued at or after warm-up are exactly the
// client's accesses.
func TestWarmupGatesReadsByIssueTime(t *testing.T) {
	const warmup = 100.0
	r := newRig(t, core.AttributeCaching, 0)
	r.m.Warmup = warmup
	collector := &trace.Collector{}
	r.client.tracer = collector
	r.exec(
		hold(warmup-1e-3),
		r.ask(query(0, 1, 2, 3)), // three misses: served after warm-up
		r.ask(query(1, 1, 2, 3)),
	)
	first := collector.Records[0]
	if first.IssuedAt >= warmup || first.CompletedAt <= warmup {
		t.Fatalf("first query does not straddle the warm-up horizon: %+v", first)
	}
	reads := 0
	for _, rec := range collector.Records {
		if rec.IssuedAt >= warmup {
			reads += rec.Reads
		}
	}
	if uint64(reads) != r.m.Total() || r.m.HitRatio() != 1 {
		t.Fatalf("records issued after warm-up hold %d reads; the client counted %d accesses, hit ratio %v",
			reads, r.m.Total(), r.m.HitRatio())
	}
}

// --- broadcast dissemination -------------------------------------------

func newBroadcastRig(t *testing.T) (*rig, *broadcast.Program) {
	t.Helper()
	r := newRig(t, core.AttributeCaching, 0)
	// Broadcast attribute 0 of objects 1..5.
	prog := broadcast.New(broadcast.HotAttrItems([]oodb.OID{1, 2, 3, 4, 5}, 1),
		network.WirelessBandwidthBps, 0)
	r.client = New(Config{
		ID: 0, Kernel: r.k, Server: r.srv, Up: r.up, Down: r.down,
		Granularity: core.AttributeCaching, Policy: replacement.NewLRU(),
		Gen: r.client.gen, Arrival: workload.NewPoisson(0.01),
		Scratch: new(core.Scratch), Metrics: r.m, Seed: 1, Horizon: 1e6,
		Broadcast: prog,
	})
	return r, prog
}

func TestBroadcastServesCoveredReads(t *testing.T) {
	r, prog := newBroadcastRig(t)
	r.exec(
		// Object 1 attr 0 is on the air; object 50 is not.
		r.ask(query(0, 1, 50)),
	)
	if r.m.Air != 1 {
		t.Fatalf("BroadcastReads = %d, want 1", r.m.Air)
	}
	if !r.client.Store().Contains(oodb.AttrItem(1, 0)) {
		t.Fatal("broadcast item not cached")
	}
	e, _ := r.client.Store().Peek(oodb.AttrItem(1, 0))
	if e.ExpiresAt > prog.Cycle()*2+1 {
		t.Fatalf("broadcast lease %v exceeds ~one cycle", e.ExpiresAt)
	}
	// The point-to-point reply carried only the uncovered item.
	if r.up.Messages() != 1 {
		t.Fatalf("uplink messages = %d", r.up.Messages())
	}
}

func TestBroadcastOnlyQuerySendsNothing(t *testing.T) {
	r, _ := newBroadcastRig(t)
	r.exec(r.ask(query(0, 1, 2, 3)))
	if r.up.Messages() != 0 || r.down.Messages() != 0 {
		t.Fatalf("broadcast-covered query used point-to-point channels (%d/%d)",
			r.up.Messages(), r.down.Messages())
	}
	if r.m.Air != 3 {
		t.Fatalf("BroadcastReads = %d", r.m.Air)
	}
	// Subsequent identical reads hit the cache within the lease.
	r.exec(r.ask(query(1, 1, 2, 3)))
	if r.m.Air != 3 {
		t.Fatal("cached broadcast items re-fetched from the air")
	}
}

func TestBroadcastWaitBoundedByCycle(t *testing.T) {
	r, prog := newBroadcastRig(t)
	r.exec(r.ask(query(0, 1, 2, 3, 4, 5)))
	if wait := r.k.Now(); wait > prog.Cycle()+5*prog.MeanWait() {
		t.Errorf("broadcast wait %v too long for cycle %v", wait, prog.Cycle())
	}
}

func TestBroadcastIgnoredWhileDisconnected(t *testing.T) {
	r, _ := newBroadcastRig(t)
	sched := &network.Schedule{}
	sched.AddOutage(network.Outage{Start: 0, End: 1e6})
	r.client.sched = sched
	r.exec(r.ask(query(0, 1)))
	if r.m.Air != 0 {
		t.Fatal("disconnected client read from the air")
	}
	if r.m.Unavailable != 1 {
		t.Fatalf("unavailable = %d", r.m.Unavailable)
	}
}
