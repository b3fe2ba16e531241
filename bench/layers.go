package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"time"

	"repro/internal/buffer"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/federation"
	"repro/internal/network"
	"repro/internal/oodb"
	"repro/internal/replacement"
	"repro/internal/serve"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/workload"
)

// layerBench runs the per-layer drivers: tight loops over one module's
// public functions at a stated size, measured from outside. Every batch is
// wrapped in a span; the reported figure is the median over the batches.
type layerBench struct {
	tr    *tracer
	scale int // divides every iteration count (1 = full size; tests use more)
	work  string
	o     *runOutput // receives every figure with its sample count
}

// batches times fn three times and records the median ns per operation
// under name; fn performs n operations per call and returns the time they
// took.
func (b *layerBench) batches(name string, n int, fn func(n int) time.Duration) {
	n = max(n/b.scale, 16)
	per := make([]float64, 3)
	for i := range per {
		start := b.tr.now()
		d := fn(n)
		b.tr.record(span{ID: b.tr.newID(), Name: "layer." + name, Start: start, End: start + int64(d)})
		per[i] = float64(d) / float64(n)
	}
	b.o.set(name, median(per), len(per))
}

// timed runs fn once and returns how long it took.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// run executes every driver. seed feeds the generated inputs.
func (b *layerBench) run(seed uint64) error {
	paper := findWorkload("sim_paper")
	sc, err := paper.newScenario(seed, paper.days)
	if err != nil {
		return err
	}
	b.sim()
	if err := b.model(sc); err != nil {
		return err
	}
	if err := b.simServers(sc, seed); err != nil {
		return err
	}
	if err := b.serveStore(seed); err != nil {
		return err
	}
	return b.storage(seed)
}

// holdLoop is a machine that holds one time unit forever.
type holdLoop struct{}

func (holdLoop) Step(m *sim.Machine) { m.Hold(1) }

// finisher is a machine that ends at its first step.
type finisher struct{}

func (finisher) Step(m *sim.Machine) { m.Finish() }

// contender cycles acquire → hold → release → hold on one resource.
type contender struct {
	r  *sim.Resource
	pc int
}

func (c *contender) Step(m *sim.Machine) {
	for {
		switch c.pc {
		case 0:
			c.pc = 1
			if !c.r.AcquireCall(m) {
				return
			}
		case 1:
			c.pc = 2
			m.Hold(1)
			return
		case 2:
			c.r.Release()
			c.pc = 0
			m.Hold(1)
			return
		}
	}
}

// sim: kernel dispatch, heap depth, FCFS contention, spawn.
func (b *layerBench) sim() {
	b.batches("sim.machine_ns_per_event", 2_000_000, func(n int) time.Duration {
		k := sim.NewKernel()
		k.SpawnMachine("m", holdLoop{})
		defer k.Drain()
		return timed(func() { k.Run(float64(n)) })
	})
	b.batches("sim.heap_ns_per_event_10k", 500_000, func(n int) time.Duration {
		const pending = 10_000
		k := sim.NewKernel()
		for i := 0; i < pending; i++ {
			k.SpawnMachineAt(float64(i)/pending, "m", holdLoop{})
		}
		defer k.Drain()
		return timed(func() { k.Run(float64(n) / pending) })
	})
	b.batches("sim.resource_ns_per_acquire", 500_000, func(n int) time.Duration {
		k := sim.NewKernel()
		r := sim.NewResource(k, "r", 1)
		for i := 0; i < 10; i++ {
			k.SpawnMachine("m", &contender{r: r})
		}
		defer k.Drain()
		// One unit is served per time unit: n time units ≈ n acquires.
		d := timed(func() { k.Run(float64(n)) })
		return time.Duration(float64(d) * float64(n) / float64(max(r.Acquires(), 1)))
	})
	b.batches("sim.spawn_ns_per_machine", 100_000, func(n int) time.Duration {
		k := sim.NewKernel()
		return timed(func() {
			for i := 0; i < n; i++ {
				k.SpawnMachine("m", finisher{})
			}
			k.RunAll()
		})
	})
}

// attrItems returns the number of attribute items that fit a cache of the
// given size in objects' worth of bytes.
func attrItems(objects int) int {
	return objects * core.ItemCost(oodb.ObjectItem(0)) / core.ItemCost(oodb.AttrItem(0, 0))
}

// item returns the i-th attribute item of an unbounded sequence.
func item(i int) oodb.Item {
	return oodb.AttrItem(oodb.OID(i/oodb.NumAttrs), oodb.AttrID(i%oodb.NumAttrs))
}

// model: workload generator, replacement policy, cache table, LRU buffer,
// coherence estimator — the per-query model code of a simulated client
// and server.
func (b *layerBench) model(sc *experiment.Scenario) error {
	cw, _ := clientWorkload(sc, 0)
	b.batches("workload.ns_per_query", 30_000, func(n int) time.Duration {
		var q workload.Query
		return timed(func() {
			for i := 0; i < n; i++ {
				cw.Gen.NextInto(cw.Stream, &q)
			}
		})
	})

	factory, err := replacement.Parse("ewma-0.5")
	if err != nil {
		return err
	}
	for _, objects := range []int{400, 10} {
		size := attrItems(objects)
		suffix := strconv.Itoa(objects)
		fill := func() (replacement.Policy, float64) {
			p, now := factory(), 0.0
			for i := 0; i < size; i++ {
				now++
				p.OnInsert(item(i), now)
			}
			for i := 0; i < size; i += 3 {
				now += 0.5
				p.OnAccess(item(i), now)
			}
			return p, now
		}
		b.batches("replacement.touch_ns_"+suffix, 300_000, func(n int) time.Duration {
			p, now := fill()
			return timed(func() {
				for i := 0; i < n; i++ {
					now++
					p.OnAccess(item(i%size), now)
				}
			})
		})
		b.batches("replacement.evict_ns_"+suffix, 200_000, func(n int) time.Duration {
			p, now := fill()
			return timed(func() {
				for i := 0; i < n; i++ {
					now++
					v, _ := p.Victim(now)
					p.Remove(v)
					p.OnInsert(item(size+i), now)
				}
			})
		})
		b.batches("core.insert_batch_ns_per_item_"+suffix, 60_000, func(n int) time.Duration {
			c := core.NewCache(objects*core.ItemCost(oodb.ObjectItem(0)), factory())
			now := 0.0
			for i := 0; i < size; i++ {
				now++
				c.Insert(item(i), core.NoExpiryEntry(1, now), now)
			}
			// One reply's worth of new items per batch into a full cache.
			batch := make([]core.BatchEntry, oodb.NumAttrs)
			return timed(func() {
				for i := 0; i < n; i += len(batch) {
					now++
					for j := range batch {
						batch[j] = core.BatchEntry{Item: item(size + i + j), Entry: core.NoExpiryEntry(1, now)}
					}
					c.InsertBatch(batch, now)
				}
			})
		})
	}

	size := attrItems(400)
	newCache := func() *core.Cache {
		c := core.NewCache(400*core.ItemCost(oodb.ObjectItem(0)), factory())
		for i := 0; i < size; i++ {
			c.Insert(item(i), core.NoExpiryEntry(1, float64(i)), float64(i))
		}
		return c
	}
	b.batches("core.lookup_ns", 300_000, func(n int) time.Duration {
		c, now := newCache(), float64(size)
		return timed(func() {
			for i := 0; i < n; i++ {
				now++
				c.Lookup(item(i%size), now)
			}
		})
	})
	b.batches("core.remove_ns", 200_000, func(n int) time.Duration {
		var d time.Duration
		for done := 0; done < n; done += size {
			c := newCache()
			d += timed(func() {
				for i := 0; i < size; i++ {
					c.Remove(item(i))
				}
			})
		}
		// Whole caches are emptied, so the count rounds up to a multiple.
		return time.Duration(float64(d) * float64(n) / float64((n+size-1)/size*size))
	})

	lru := buffer.NewLRU[oodb.OID, struct{}](server.DefaultBufferObjects)
	b.batches("buffer.put_ns", 1_000_000, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				lru.Put(oodb.OID(i%oodb.DefaultNumObjects), struct{}{})
			}
		})
	})
	b.batches("buffer.get_ns", 2_000_000, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				lru.Get(oodb.OID(i % oodb.DefaultNumObjects))
			}
		})
	})

	est := coherence.NewRefreshEstimator(0)
	items := oodb.DefaultNumObjects * oodb.NumAttrs
	now := 0.0
	b.batches("coherence.observe_write_ns", 1_000_000, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				now += 0.25
				est.ObserveWrite(item(i%items), now)
			}
		})
	})
	b.batches("coherence.refresh_time_ns", 1_000_000, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				est.RefreshTime(item(i%items), now)
			}
		})
	})
	db := oodb.New(oodb.Config{})
	oracle := coherence.NewOracle(db)
	b.batches("coherence.oracle_is_error_ns", 2_000_000, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				oracle.IsError(item(i%items), 0)
			}
		})
	})
	return nil
}

// clientWorkload returns client i's workload substreams and the database of
// a scenario, derived exactly as a run derives them.
func clientWorkload(sc *experiment.Scenario, i int) (experiment.ClientWorkload, *oodb.Database) {
	cfg := sc.Config()
	db := experiment.NewDatabase(cfg)
	return experiment.NewClientWorkload(cfg, db, i), db
}

// caller drives one resumable request call over a canned request list.
type caller struct {
	call  server.RequestCall
	reqs  []server.Request
	next  int
	armed bool
}

func (c *caller) Step(m *sim.Machine) {
	for c.next < len(c.reqs) {
		if !c.armed {
			c.call.Begin(c.reqs[c.next])
			c.armed = true
		}
		if _, done := c.call.Step(m); !done {
			return
		}
		c.armed = false
		c.next++
	}
	m.Finish()
}

// sender ships fixed-size messages over a channel.
type sender struct {
	ch   *network.Channel
	st   network.SendState
	left int
}

func (s *sender) Step(m *sim.Machine) {
	for s.left > 0 {
		if !s.ch.SendStep(m, &s.st, 64) {
			return
		}
		s.left--
	}
	m.Finish()
}

// simServers: the server, the channel, the fault model and the federated
// contact server, each on a bare kernel with no client around it.
func (b *layerBench) simServers(sc *experiment.Scenario, seed uint64) error {
	cw, _ := clientWorkload(sc, 0)
	cfg := sc.Config()
	// Canned HC requests: the sim_paper generator's queries, all of whose
	// reads the client could not satisfy locally.
	reqs := make([]server.Request, max(8_000/b.scale, 16))
	for i := range reqs {
		q := cw.Gen.Next(cw.Stream)
		reqs[i] = server.Request{Granularity: core.HybridCaching, Accesses: q.Reads, Need: q.Reads}
	}
	b.batches("server.ns_per_request", len(reqs)*b.scale, func(n int) time.Duration {
		k := sim.NewKernel()
		srv := server.New(server.Config{
			Kernel: k, DB: experiment.NewDatabase(cfg),
			UpdateProb: cfg.UpdateProb, PrefetchKappa: math.NaN(), Seed: seed,
		})
		k.SpawnMachine("caller", &caller{call: srv.NewCall(), reqs: reqs[:n]})
		defer k.Drain()
		return timed(func() { k.RunAll() })
	})

	b.batches("network.ns_per_send", 500_000, func(n int) time.Duration {
		k := sim.NewKernel()
		ch := network.NewChannel(k, "up", network.WirelessBandwidthBps)
		for i := 0; i < 2; i++ {
			k.SpawnMachine("sender", &sender{ch: ch, left: n / 2})
		}
		defer k.Drain()
		return timed(func() { k.RunAll() })
	})
	fm := network.NewFaultModel(network.FaultConfig{LossProb: 0.1, Seed: seed}, 1)
	frames := 0
	b.batches("network.fault_ns_per_frame", 2_000_000, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				frames++
				fm.Transmit(float64(frames) * 0.05)
			}
		})
	})

	// Federation: cell 0's contact server of the sim_fleet cluster, fed the
	// fleet generator's own queries. Objects are range-partitioned over
	// the nodes, so about three quarters of each read set is remote.
	fleet := findWorkload("sim_fleet")
	fsc, err := fleet.newScenario(seed, fleet.days)
	if err != nil {
		return err
	}
	fcw, _ := clientWorkload(fsc, 0)
	fcfg := fsc.Config()
	fedReqs := make([]server.Request, max(20_000/b.scale, 16))
	for i := range fedReqs {
		q := fcw.Gen.Next(fcw.Stream)
		fedReqs[i] = server.Request{Granularity: fcfg.Granularity, Accesses: q.Reads, Need: q.Reads}
	}
	b.batches("federation.ns_per_request", len(fedReqs)*b.scale, func(n int) time.Duration {
		k := sim.NewKernel()
		cl := federation.New(federation.Config{
			Kernel: k, DB: experiment.NewDatabase(fcfg), NumServers: fcfg.Cells,
			UpdateProb: fcfg.UpdateProb, PrefetchKappa: math.NaN(), Seed: seed,
		})
		k.SpawnMachine("caller", &caller{call: cl.Contact(0).NewCall(), reqs: fedReqs[:n]})
		defer k.Drain()
		return timed(func() { k.RunAll() })
	})
	return nil
}

// serveStore: the in-memory live store called directly — what a request
// costs once HTTP is out of the way.
func (b *layerBench) serveStore(seed uint64) error {
	st, err := serve.Open("memory", serve.Config{Granularity: core.AttributeCaching, Policy: "ewma-0.5", NumObjects: liveObjects})
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(int64(seed)))
	zipf := rand.NewZipf(r, liveZipf, 1, liveObjects-1)
	const pool = 1 << 16
	reads := make([]workload.ReadOp, pool)
	for i := range reads {
		reads[i] = workload.ReadOp{OID: oodb.OID(zipf.Uint64()), Attr: oodb.AttrID(r.Intn(oodb.NumAttrs))}
	}
	var failed error
	b.batches("serve.store_read_ns", 150_000, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				rd := reads[i%pool]
				if _, err := st.Read(i%liveConnections, rd.OID, rd.Attr, serve.ModeServe); err != nil {
					failed = err
				}
			}
		})
	})
	b.batches("serve.store_fetch_ns_per_item", 160_000, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i+liveFetchReads <= n; i += liveFetchReads {
				at := i % (pool - liveFetchReads)
				if _, err := st.Fetch(i%liveConnections, reads[at:at+liveFetchReads]); err != nil {
					failed = err
				}
			}
		})
	})
	attrs := []oodb.AttrID{0}
	b.batches("serve.store_write_ns", 300_000, func(n int) time.Duration {
		return timed(func() {
			for i := 0; i < n; i++ {
				attrs[0] = reads[i%pool].Attr
				if _, err := st.Write(reads[i%pool].OID, attrs); err != nil {
					failed = err
				}
			}
		})
	})
	return failed
}

// storage: the log-structured engine in a temp directory. The latencies
// are this sandbox's page-cache fsync, not a device's.
func (b *layerBench) storage(seed uint64) (err error) {
	dir, err := os.MkdirTemp(b.work, "storage-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	value := make([]byte, 64)
	key := func(i int) string { return "k:" + strconv.Itoa(i) }

	// put times n sequential Puts one by one, in microseconds.
	put := func(s *storage.Store, from, n int) ([]float64, error) {
		us := make([]float64, n)
		for i := range us {
			t0 := time.Now()
			if err := s.Put(key(from+i), value); err != nil {
				return nil, err
			}
			us[i] = float64(time.Since(t0)) / 1e3
		}
		return us, nil
	}
	step := func(name string, fn func() error) error {
		start := b.tr.now()
		err := fn()
		b.tr.record(span{ID: b.tr.newID(), Name: "layer." + name, Start: start, End: b.tr.now()})
		return err
	}

	if err := step("storage.put_group", func() error {
		s, err := storage.Open(storage.Options{Path: dir + "/group", Sync: storage.SyncGroup})
		if err != nil {
			return err
		}
		defer s.Close()
		us, err := put(s, 0, max(300/b.scale, 16))
		b.o.set("storage.put_group_us_p50", median(us), len(us))
		b.o.set("storage.put_group_us_p99", quantile(us, 0.99), len(us))
		return err
	}); err != nil {
		return err
	}

	// A 100k-record store, written without fsync: small segments so that
	// recovery and compaction see several sealed ones.
	records := max(100_000/b.scale, 64)
	per100k := 100_000 / float64(records)
	opts := storage.Options{Path: dir + "/none", Sync: storage.SyncNone, SegmentBytes: 2 << 20, CompactGarbage: -1}
	s, err := storage.Open(opts)
	if err != nil {
		return err
	}
	defer func() {
		if s == nil {
			return
		}
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}()
	if err := step("storage.put_none", func() error {
		us, err := put(s, 0, records)
		b.o.set("storage.put_none_us_p50", median(us), len(us))
		return err
	}); err != nil {
		return err
	}
	if err := step("storage.get", func() error {
		r := rand.New(rand.NewSource(int64(seed)))
		us := make([]float64, records)
		for i := range us {
			k := key(r.Intn(records))
			t0 := time.Now()
			if _, ok, err := s.Get(k); err != nil || !ok {
				return fmt.Errorf("storage: get %s: present=%v err=%v", k, ok, err)
			}
			us[i] = float64(time.Since(t0)) / 1e3
		}
		b.o.set("storage.get_us_p50", median(us), len(us))
		b.o.set("storage.get_us_p99", quantile(us, 0.99), len(us))
		return nil
	}); err != nil {
		return err
	}
	if err := step("storage.recover", func() error {
		if err := s.Close(); err != nil {
			return err
		}
		d := timed(func() { s, err = storage.Open(opts) })
		b.o.set("storage.recover_ms_per_100k", d.Seconds()*1e3*per100k, 1)
		return err
	}); err != nil {
		return err
	}
	return step("storage.compact", func() error {
		// Supersede half the records, then merge the sealed segments.
		if _, err := put(s, 0, records/2); err != nil {
			return err
		}
		var cerr error
		d := timed(func() { cerr = s.Compact() })
		b.o.set("storage.compact_ms_per_100k", d.Seconds()*1e3*per100k, 1)
		return cerr
	})
}
