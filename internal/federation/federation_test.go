package federation

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/oodb"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

func newCluster(t *testing.T, servers, relayObjects int) (*sim.Kernel, *oodb.Database, *Cluster) {
	t.Helper()
	k := sim.NewKernel()
	db := oodb.New(oodb.Config{NumObjects: 100, RelSeed: 1})
	c := New(Config{
		Kernel:            k,
		DB:                db,
		NumServers:        servers,
		Seed:              3,
		RelayCacheObjects: relayObjects,
	})
	return k, db, c
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

// exec runs the statements as one simulated client until the kernel is
// idle.
func exec(k *sim.Kernel, ops ...op) {
	k.SpawnMachine("test", &script{ops: ops})
	k.RunAll()
}

// outcome is what one request statement observed.
type outcome struct {
	items int                // reply items
	took  float64            // virtual seconds from Begin to the reply
	reply []server.ReplyItem // a copy of the reply's items
}

// request serves req through call and, when out is non-nil, records what
// came back.
func request(call server.RequestCall, req server.Request, out *outcome) op {
	armed, start := false, 0.0
	return func(m *sim.Machine) bool {
		if !armed {
			armed, start = true, m.Now()
			call.Begin(req)
		}
		rep, done := call.Step(m)
		if done && out != nil {
			*out = outcome{items: len(rep.Items), took: m.Now() - start,
				reply: append([]server.ReplyItem(nil), rep.Items...)}
		}
		return done
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

func holdUntil(t float64) op {
	return func(m *sim.Machine) bool { return !m.HoldUntil(t) }
}

func do(fn func()) op {
	return func(*sim.Machine) bool { fn(); return true }
}

func readsOn(oids ...int) []workload.ReadOp {
	var out []workload.ReadOp
	for _, oid := range oids {
		out = append(out, workload.ReadOp{OID: oodb.OID(oid), Attr: 0})
	}
	return out
}

func TestOwnerPartition(t *testing.T) {
	_, _, c := newCluster(t, 4, 0)
	if c.NumServers() != 4 {
		t.Fatalf("NumServers = %d", c.NumServers())
	}
	counts := make([]int, 4)
	for oid := 0; oid < 100; oid++ {
		o := c.Owner(oodb.OID(oid))
		if o < 0 || o >= 4 {
			t.Fatalf("Owner(%d) = %d", oid, o)
		}
		counts[o]++
	}
	for i, n := range counts {
		if n != 25 {
			t.Fatalf("partition %d holds %d objects, want 25", i, n)
		}
	}
	// Range partition: contiguous.
	if c.Owner(0) != 0 || c.Owner(24) != 0 || c.Owner(25) != 1 || c.Owner(99) != 3 {
		t.Fatal("range partition boundaries wrong")
	}
}

// TestSingleNodeDelegates: a 1-node cluster's contact server answers
// exactly as a bare server over the same database would — the same items,
// versions, leases and service time.
func TestSingleNodeDelegates(t *testing.T) {
	req := server.Request{
		Granularity: core.HybridCaching,
		Accesses:    readsOn(1, 2, 7),
		Need:        readsOn(1, 2),
	}
	k, _, c := newCluster(t, 1, 0)
	var got outcome
	exec(k, request(c.Contact(0).NewCall(), req, &got))
	if got.items != 2 {
		t.Fatalf("reply items = %d", got.items)
	}

	bk := sim.NewKernel()
	srv := server.New(server.Config{
		Kernel:        bk,
		DB:            oodb.New(oodb.Config{NumObjects: 100, RelSeed: 1}),
		BufferObjects: 100 / 4, // the cluster's per-node default
		Seed:          3,
	})
	var want outcome
	exec(bk, request(srv.NewCall(), req, &want))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("1-node contact server replied\n%+v\nbare server\n%+v", got, want)
	}
}

func TestRemoteReadsAreRelayed(t *testing.T) {
	k, _, c := newCluster(t, 4, 0)
	var rep outcome
	// OIDs 1 (home) and 80 (node 3).
	exec(k, request(c.Contact(0).NewCall(), server.Request{
		Granularity: core.AttributeCaching,
		Accesses:    readsOn(1, 80),
		Need:        readsOn(1, 80),
	}, &rep))
	if rep.items != 2 {
		t.Fatalf("reply items = %d, want 2", rep.items)
	}
	if c.Node(0).Stats().QueriesServed != 1 || c.Node(3).Stats().QueriesServed != 1 {
		t.Fatal("home and owner nodes should each have served one request")
	}
	if c.Node(1).Stats().QueriesServed != 0 {
		t.Fatal("uninvolved node served a request")
	}
	_, _, relayed := c.RelayStats(0)
	if relayed != 1 {
		t.Fatalf("relayed reads = %d, want 1", relayed)
	}
}

func TestRemoteCostsBackboneTime(t *testing.T) {
	run := func(oid int) float64 {
		k, _, c := newCluster(t, 4, 0)
		var rep outcome
		exec(k, request(c.Contact(0).NewCall(), server.Request{
			Granularity: core.AttributeCaching,
			Accesses:    readsOn(oid),
			Need:        readsOn(oid),
		}, &rep))
		return rep.took
	}
	local := run(1)
	remote := run(80)
	if remote <= local {
		t.Fatalf("remote read (%v) not slower than local (%v)", remote, local)
	}
	if remote < 2*DefaultBackboneLatency {
		t.Fatalf("remote read %v cheaper than two backbone latencies", remote)
	}
}

func TestRelayCacheServesRepeats(t *testing.T) {
	k, _, c := newCluster(t, 2, 10)
	call := c.Contact(0).NewCall()
	req := server.Request{
		Granularity: core.AttributeCaching,
		Accesses:    readsOn(90),
		Need:        readsOn(90),
	}
	var first, second outcome
	exec(k, request(call, req, &first), request(call, req, &second))
	if second.items != 1 {
		t.Errorf("second reply items = %d", second.items)
	}
	hits, misses, _ := c.RelayStats(0)
	if hits != 1 || misses != 1 {
		t.Fatalf("relay hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if second.took >= first.took {
		t.Fatalf("relay-cached read (%v) not faster than cold (%v)", second.took, first.took)
	}
	// The owner still saw both requests (update model/heat), but the
	// second shipped nothing.
	if got := c.Node(1).Stats().QueriesServed; got != 2 {
		t.Fatalf("owner served %d requests, want 2", got)
	}
}

func TestRelayCacheRespectsLeases(t *testing.T) {
	k, db, c := newCluster(t, 2, 10)
	// Give object 90's attribute 0 a write history so leases are short.
	owner, contact := c.Node(1).NewCall(), c.Contact(0).NewCall()
	var ops []op
	for i := 0; i < 4; i++ {
		ops = append(ops,
			do(func() { db.Write(90, 0) }),
			request(owner, server.Request{
				Granularity: core.AttributeCaching,
				Accesses:    readsOn(90),
			}, nil),
			hold(10))
	}
	fetch := server.Request{
		Granularity: core.AttributeCaching,
		Accesses:    readsOn(90),
		Need:        readsOn(90),
	}
	ops = append(ops,
		request(contact, fetch, nil), // prime the relay cache
		// Far past the ~10s lease, the relay must refetch, not serve stale.
		hold(1000),
		request(contact, fetch, nil))
	exec(k, ops...)
	hits, _, _ := c.RelayStats(0)
	if hits != 0 {
		t.Fatalf("relay served %d stale hits", hits)
	}
}

func TestValidation(t *testing.T) {
	k := sim.NewKernel()
	db := oodb.New(oodb.Config{NumObjects: 10})
	cases := []func(){
		func() { New(Config{DB: db, NumServers: 2}) },
		func() { New(Config{Kernel: k, NumServers: 2}) },
		func() { New(Config{Kernel: k, DB: db, NumServers: 0}) },
		func() { New(Config{Kernel: k, DB: db, NumServers: 2}).Contact(5) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestUpdatesApplyAtOwner(t *testing.T) {
	k, db, c := newCluster(t, 2, 0)
	// Rebuild with updates on.
	k = sim.NewKernel()
	db = oodb.New(oodb.Config{NumObjects: 100, RelSeed: 1})
	c = New(Config{Kernel: k, DB: db, NumServers: 2, Seed: 3, UpdateProb: 1})
	exec(k, request(c.Contact(0).NewCall(), server.Request{
		Granularity: core.AttributeCaching,
		Accesses:    readsOn(1, 90),
		Need:        readsOn(1, 90),
	}, nil))
	if db.AttrVersion(1, 0) != 1 || db.AttrVersion(90, 0) != 1 {
		t.Fatalf("updates not applied at both partitions: v1=%d v90=%d",
			db.AttrVersion(1, 0), db.AttrVersion(90, 0))
	}
	if c.Node(0).Stats().UpdatesApplied != 1 || c.Node(1).Stats().UpdatesApplied != 1 {
		t.Fatal("update accounting not split across owners")
	}
}

// TestContactScratchIsPerRequestInFlight: the contact server's processing
// state comes from the home node's free list for one request and goes back
// when the reply is ready, so one caller's sequential requests leave
// exactly one pooled scratch. The collected reply is not part of it: a
// caller's reply stays intact while another caller's requests run through
// the same pooled scratch, until the caller's own next Begin.
func TestContactScratchIsPerRequestInFlight(t *testing.T) {
	k, _, c := newCluster(t, 2, 10)
	a, b := c.Contact(0).NewCall(), c.Contact(0).NewCall()
	// OIDs 1 and 3 are home (node 0), 60 and 90 remote (node 1).
	reqA := server.Request{ClientID: 1, Granularity: core.HybridCaching,
		Accesses: readsOn(1, 60), Need: readsOn(1, 60)}
	reqB := server.Request{ClientID: 2, Granularity: core.AttributeCaching,
		Accesses: readsOn(3, 90), Need: readsOn(3, 90)}

	var held, snapshot []server.ReplyItem
	armed := false
	keep := func(m *sim.Machine) bool {
		if !armed {
			armed = true
			a.Begin(reqA)
		}
		rep, done := a.Step(m)
		if done {
			held = rep.Items // aliased, not copied
			snapshot = append([]server.ReplyItem(nil), rep.Items...)
		}
		return done
	}
	ops := []op{keep}
	for i := 0; i < 5; i++ {
		ops = append(ops, request(b, reqB, nil))
	}
	exec(k, ops...)
	if len(snapshot) != 2 || !reflect.DeepEqual(held, snapshot) {
		t.Fatalf("caller A's reply changed under caller B's requests:\n%+v\nwant\n%+v", held, snapshot)
	}
	if n := len(c.nodes[0].free); n != 1 {
		t.Fatalf("%d pooled scratches after sequential requests, want 1", n)
	}
	if n := len(c.nodes[1].free); n != 0 {
		t.Fatalf("remote node pooled %d scratches; the pool is the home node's", n)
	}
}
