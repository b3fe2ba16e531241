package server

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/oodb"
	"repro/internal/sim"
	"repro/internal/workload"
)

func newTestServer(t *testing.T, cfg Config) (*sim.Kernel, *Server) {
	t.Helper()
	k := sim.NewKernel()
	if cfg.Kernel == nil {
		cfg.Kernel = k
	}
	if cfg.DB == nil {
		cfg.DB = oodb.New(oodb.Config{NumObjects: 100, RelSeed: 1})
	}
	if math.IsNaN(cfg.PrefetchKappa) {
		// keep caller's NaN
	} else if cfg.PrefetchKappa == 0 {
		cfg.PrefetchKappa = math.NaN() // default
	}
	return cfg.Kernel, New(cfg)
}

// caller is a machine that serves reqs through one RequestCall in order,
// idling gap seconds after each, and keeps a copy of every reply (a
// reply's Items alias per-client scratch the next request overwrites).
type caller struct {
	call    RequestCall
	reqs    []Request
	gap     float64
	replies []Reply
	armed   bool
}

func (c *caller) Step(m *sim.Machine) {
	for len(c.replies) < len(c.reqs) {
		if !c.armed {
			c.call.Begin(c.reqs[len(c.replies)])
			c.armed = true
		}
		rep, done := c.call.Step(m)
		if !done {
			return
		}
		c.armed = false
		c.replies = append(c.replies, Reply{Items: append([]ReplyItem(nil), rep.Items...)})
		if c.gap > 0 {
			m.Hold(c.gap)
			return
		}
	}
	m.Finish()
}

// serve runs reqs against s, one after the other, until the kernel is
// idle, and returns the replies.
func serve(k *sim.Kernel, s *Server, reqs ...Request) []Reply {
	return serveEvery(k, s, 0, reqs...)
}

// serveEvery is serve with gap seconds of idle time after each request.
func serveEvery(k *sim.Kernel, s *Server, gap float64, reqs ...Request) []Reply {
	c := &caller{call: s.NewCall(), reqs: reqs, gap: gap}
	k.SpawnMachine("test", c)
	k.RunAll()
	return c.replies
}

// repeat returns n copies of req.
func repeat(req Request, n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = req
	}
	return out
}

func reads(oids ...int) []workload.ReadOp {
	var out []workload.ReadOp
	for _, oid := range oids {
		out = append(out, workload.ReadOp{OID: oodb.OID(oid), Attr: 0})
	}
	return out
}

func TestACReplyOnlyNeededAttrs(t *testing.T) {
	k, s := newTestServer(t, Config{})
	reply := serve(k, s, Request{
		ClientID:    1,
		Granularity: core.AttributeCaching,
		Accesses: []workload.ReadOp{
			{OID: 1, Attr: 0}, {OID: 1, Attr: 1}, {OID: 2, Attr: 3},
		},
		Need: []workload.ReadOp{{OID: 2, Attr: 3}},
	})[0]
	if len(reply.Items) != 1 {
		t.Fatalf("reply has %d items, want 1", len(reply.Items))
	}
	it := reply.Items[0]
	if it.Item != oodb.AttrItem(2, 3) || it.Prefetched {
		t.Fatalf("reply item %+v", it)
	}
}

func TestOCReplyWholeObjects(t *testing.T) {
	k, s := newTestServer(t, Config{})
	reply := serve(k, s, Request{
		ClientID:    1,
		Granularity: core.ObjectCaching,
		Accesses: []workload.ReadOp{
			{OID: 1, Attr: 0}, {OID: 1, Attr: 5}, {OID: 2, Attr: 1},
		},
		Need: []workload.ReadOp{
			{OID: 1, Attr: 0}, {OID: 1, Attr: 5}, {OID: 2, Attr: 1},
		},
	})[0]
	if len(reply.Items) != 2 {
		t.Fatalf("reply has %d items, want 2 distinct objects", len(reply.Items))
	}
	for _, it := range reply.Items {
		if !it.Item.IsObject() {
			t.Fatalf("OC reply shipped non-object %v", it.Item)
		}
	}
}

func TestOCReplyBiggerThanAC(t *testing.T) {
	need := []workload.ReadOp{{OID: 1, Attr: 0}, {OID: 1, Attr: 1}}
	var acSize, ocSize int
	{
		k, s := newTestServer(t, Config{})
		acSize = serve(k, s, Request{Granularity: core.AttributeCaching,
			Accesses: need, Need: need})[0].WireSize()
	}
	{
		k, s := newTestServer(t, Config{})
		ocSize = serve(k, s, Request{Granularity: core.ObjectCaching,
			Accesses: need, Need: need})[0].WireSize()
	}
	if ocSize <= acSize {
		t.Fatalf("OC reply %dB <= AC reply %dB", ocSize, acSize)
	}
}

func TestEmptyNeedEmptyReply(t *testing.T) {
	k, s := newTestServer(t, Config{})
	reply := serve(k, s, Request{
		Granularity: core.AttributeCaching,
		Accesses:    reads(1, 2),
	})[0]
	if len(reply.Items) != 0 {
		t.Fatalf("reply items %v, want none", reply.Items)
	}
}

func TestUpdatesApplied(t *testing.T) {
	db := oodb.New(oodb.Config{NumObjects: 50})
	k, s := newTestServer(t, Config{DB: db, UpdateProb: 1, Seed: 3})
	serve(k, s, Request{
		Granularity: core.AttributeCaching,
		Accesses: []workload.ReadOp{
			{OID: 7, Attr: 2}, {OID: 7, Attr: 4}, {OID: 9, Attr: 1},
		},
		Need: []workload.ReadOp{{OID: 7, Attr: 2}},
	})
	if db.AttrVersion(7, 2) != 1 || db.AttrVersion(7, 4) != 1 {
		t.Fatal("accessed attributes not updated with U=1")
	}
	if db.AttrVersion(7, 0) != 0 {
		t.Fatal("unaccessed attribute was updated")
	}
	if db.AttrVersion(9, 1) != 1 {
		t.Fatal("second object not updated")
	}
	if s.Stats().UpdatesApplied != 2 {
		t.Fatalf("UpdatesApplied = %d, want 2", s.Stats().UpdatesApplied)
	}
}

func TestNoUpdatesWhenProbZero(t *testing.T) {
	db := oodb.New(oodb.Config{NumObjects: 50})
	k, s := newTestServer(t, Config{DB: db, UpdateProb: 0})
	serve(k, s, Request{
		Granularity: core.AttributeCaching,
		Accesses:    reads(1, 2, 3),
		Need:        reads(1),
	})
	if db.TotalWrites() != 0 {
		t.Fatalf("writes applied with U=0: %d", db.TotalWrites())
	}
}

func TestRefreshTimesShippedWithWrites(t *testing.T) {
	db := oodb.New(oodb.Config{NumObjects: 50})
	k, s := newTestServer(t, Config{DB: db, UpdateProb: 1, Seed: 1, Beta: 0})
	// Repeated queries on the same attr create a write stream; later
	// replies must carry finite expiry.
	last := serveEvery(k, s, 100, repeat(Request{
		Granularity: core.AttributeCaching,
		Accesses:    []workload.ReadOp{{OID: 3, Attr: 1}},
		Need:        []workload.ReadOp{{OID: 3, Attr: 1}},
	}, 5)...)[4]
	if len(last.Items) != 1 {
		t.Fatalf("items %v", last.Items)
	}
	// Inter-write gap is ~100s; the shipped refresh estimate must be in
	// that neighbourhood once history exists.
	if rt := last.Items[0].Refresh; rt < 50 || rt > 500 {
		t.Fatalf("shipped refresh time %v, want ~100s", rt)
	}
	if last.Items[0].Version != db.AttrVersion(3, 1) {
		t.Fatal("reply version stale")
	}
}

func TestBufferAndDiskAccounting(t *testing.T) {
	k, s := newTestServer(t, Config{})
	req := Request{
		Granularity: core.AttributeCaching,
		Accesses:    reads(1, 2),
		Need:        reads(1, 2),
	}
	serve(k, s, req, req) // second time, same objects: buffer hits
	st := s.Stats()
	if st.DiskReads != 2 {
		t.Fatalf("DiskReads = %d, want 2", st.DiskReads)
	}
	if st.BufferHits != 2 {
		t.Fatalf("BufferHits = %d, want 2", st.BufferHits)
	}
	if st.QueriesServed != 2 {
		t.Fatalf("QueriesServed = %d", st.QueriesServed)
	}
}

func TestDiskTimeCharged(t *testing.T) {
	k, s := newTestServer(t, Config{})
	serve(k, s, Request{
		Granularity: core.AttributeCaching,
		Accesses:    reads(1),
		Need:        reads(1),
	})
	elapsed := k.Now()
	want := float64(oodb.ObjectSize) * 8 / 40e6
	if math.Abs(elapsed-want) > 1e-12 {
		t.Fatalf("elapsed %v, want %v (one disk read)", elapsed, want)
	}
}

func TestHCPrefetchColdStart(t *testing.T) {
	k, s := newTestServer(t, Config{})
	reply := serve(k, s, Request{
		ClientID:    1,
		Granularity: core.HybridCaching,
		Accesses:    []workload.ReadOp{{OID: 1, Attr: 0}},
		Need:        []workload.ReadOp{{OID: 1, Attr: 0}},
	})[0]
	// Below prefetchMinSamples the prefetch set is empty: HC behaves as AC.
	if len(reply.Items) != 1 || reply.Items[0].Prefetched {
		t.Fatalf("cold-start HC reply %+v", reply.Items)
	}
}

func TestHCPrefetchAfterWarmup(t *testing.T) {
	k, s := newTestServer(t, Config{})
	// Warm the heat profile: client 1 hammers attributes 0 and 1.
	warm := Request{
		ClientID:    1,
		Granularity: core.HybridCaching,
		Accesses: []workload.ReadOp{
			{OID: 1, Attr: 0}, {OID: 2, Attr: 0}, {OID: 3, Attr: 1},
		},
	}
	reply := serve(k, s, append(repeat(warm, 60), Request{
		ClientID:    1,
		Granularity: core.HybridCaching,
		Accesses:    []workload.ReadOp{{OID: 9, Attr: 0}},
		Need:        []workload.ReadOp{{OID: 9, Attr: 0}},
	})...)[60]
	set := s.prefetchSet(1)
	if len(set) == 0 {
		t.Fatal("prefetch set empty after warmup")
	}
	for _, a := range set {
		if a != 0 && a != 1 {
			t.Fatalf("prefetch set contains cold attribute %d", a)
		}
	}
	// The reply must include prefetched hot attributes of object 9 beyond
	// the requested one, flagged as prefetched, with no duplicates.
	seen := map[oodb.Item]bool{}
	prefetched := 0
	for _, it := range reply.Items {
		if seen[it.Item] {
			t.Fatalf("duplicate reply item %v", it.Item)
		}
		seen[it.Item] = true
		if it.Prefetched {
			prefetched++
		}
	}
	if got := len(reply.Items) - prefetched; got != 1 {
		t.Fatalf("requested items in reply = %d, want 1", got)
	}
	if prefetched != len(set)-1 && prefetched != len(set) {
		t.Fatalf("prefetched %d items, prefetch set %d", prefetched, len(set))
	}
}

func TestHCKappaControlsPrefetchBreadth(t *testing.T) {
	warm := func(s *Server, k *sim.Kernel) {
		// Skewed profile: attr0 80%, attr1 20%.
		var acc []workload.ReadOp
		for i := 0; i < 80; i++ {
			acc = append(acc, workload.ReadOp{OID: oodb.OID(i % 20), Attr: 0})
		}
		for i := 0; i < 20; i++ {
			acc = append(acc, workload.ReadOp{OID: oodb.OID(i % 20), Attr: 1})
		}
		serve(k, s, Request{ClientID: 1, Granularity: core.HybridCaching, Accesses: acc})
	}
	kLow, sLow := newTestServer(t, Config{PrefetchKappa: -2})
	warm(sLow, kLow)
	kHigh, sHigh := newTestServer(t, Config{PrefetchKappa: 2})
	warm(sHigh, kHigh)
	low := len(sLow.prefetchSet(1))
	high := len(sHigh.prefetchSet(1))
	if low <= high {
		t.Fatalf("kappa=-2 prefetches %d attrs, kappa=+2 prefetches %d; want low > high", low, high)
	}
	if low != oodb.NumPrimAttrs {
		t.Fatalf("kappa=-2 (the paper's setting) should prefetch all attrs, got %d", low)
	}
}

func TestHeatIsolatedPerClient(t *testing.T) {
	k, s := newTestServer(t, Config{})
	var acc []workload.ReadOp
	for i := 0; i < 200; i++ {
		acc = append(acc, workload.ReadOp{OID: 1, Attr: 0})
	}
	serve(k, s, Request{ClientID: 1, Granularity: core.HybridCaching, Accesses: acc})
	if set := s.prefetchSet(2); set != nil {
		t.Fatalf("client 2 inherited client 1's heat: %v", set)
	}
}

// TestHeatOnlyForHC: attribute heat has one reader, HC's prefetchSet, so
// requests at every other granularity leave no heat state behind, and the
// HC clients of a cell share one dense table rather than a map.
func TestHeatOnlyForHC(t *testing.T) {
	k, s := newTestServer(t, Config{})
	var acc []workload.ReadOp
	for i := 0; i < 200; i++ {
		acc = append(acc, workload.ReadOp{OID: oodb.OID(i % 20), Attr: 0})
	}
	for _, g := range []core.Granularity{core.AttributeCaching, core.ObjectCaching, core.NoCache} {
		serve(k, s, Request{ClientID: 1, Granularity: g, Accesses: acc, Need: acc[:3]})
	}
	if s.heat != nil {
		t.Fatalf("non-HC requests left heat for %d clients", len(s.heat))
	}
	if set := s.prefetchSet(1); set != nil {
		t.Fatalf("prefetch set %v from non-HC requests", set)
	}
	// HC clients arriving in descending ID order still land in one table
	// spanning their IDs, each with its own profile.
	for id := 9; id >= 5; id-- {
		serve(k, s, Request{ClientID: id, Granularity: core.HybridCaching, Accesses: acc[:100+id]})
	}
	if s.heatLo > 5 || s.heatLo+len(s.heat) < 10 {
		t.Fatalf("heat table spans [%d,%d), want [5,10) covered", s.heatLo, s.heatLo+len(s.heat))
	}
	for id := 5; id <= 9; id++ {
		if h := s.heat[id-s.heatLo]; h.total != uint64(100+id) {
			t.Fatalf("client %d heat total %d, want %d", id, h.total, 100+id)
		}
	}
}

func TestValidationPanics(t *testing.T) {
	cases := []func(){
		func() { New(Config{}) },
		func() { New(Config{Kernel: sim.NewKernel()}) },
		func() {
			New(Config{Kernel: sim.NewKernel(),
				DB: oodb.New(oodb.Config{NumObjects: 10}), UpdateProb: 2})
		},
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
	k := sim.NewKernel()
	s := New(Config{Kernel: k, DB: oodb.New(oodb.Config{NumObjects: 10})})
	defer func() {
		if recover() == nil {
			t.Error("invalid granularity did not panic")
		}
	}()
	serve(k, s, Request{Granularity: core.Granularity(42)})
}

func TestRequestWireSize(t *testing.T) {
	req := Request{ExistentEntries: 3}
	if req.WireSize() != 11+16+3*5 {
		t.Fatalf("WireSize = %d", req.WireSize())
	}
}

func TestNCReplyShipsWholeObjects(t *testing.T) {
	k, s := newTestServer(t, Config{})
	reply := serve(k, s, Request{
		Granularity: core.NoCache,
		Accesses:    reads(1, 2),
		Need:        reads(1, 2),
	})[0]
	if len(reply.Items) != 2 {
		t.Fatalf("%d items", len(reply.Items))
	}
	for _, it := range reply.Items {
		if !it.Item.IsObject() {
			t.Fatalf("NC reply shipped %v", it.Item)
		}
	}
}

func TestHeatIgnoresRelationshipAttrs(t *testing.T) {
	k, s := newTestServer(t, Config{})
	var acc []workload.ReadOp
	for i := 0; i < 200; i++ {
		// Relationship slots (>= NumPrimAttrs) must not pollute the
		// prefetch profile.
		acc = append(acc, workload.ReadOp{OID: 1, Attr: oodb.NumPrimAttrs})
		acc = append(acc, workload.ReadOp{OID: 1, Attr: 0})
	}
	serve(k, s, Request{ClientID: 1, Granularity: core.HybridCaching, Accesses: acc})
	for _, a := range s.prefetchSet(1) {
		if a >= oodb.NumPrimAttrs {
			t.Fatalf("prefetch set contains relationship attr %d", a)
		}
	}
	if len(s.prefetchSet(1)) == 0 {
		t.Fatal("prefetch set empty despite 200 primitive accesses")
	}
}

func TestPrefetchMinSamplesBoundary(t *testing.T) {
	k, s := newTestServer(t, Config{})
	acc := make([]workload.ReadOp, prefetchMinSamples-1)
	for i := range acc {
		acc[i] = workload.ReadOp{OID: oodb.OID(i % 50), Attr: 0}
	}
	serve(k, s, Request{ClientID: 1, Granularity: core.HybridCaching, Accesses: acc})
	if set := s.prefetchSet(1); set != nil {
		t.Fatalf("prefetch active below min samples: %v", set)
	}
	serve(k, s, Request{ClientID: 1, Granularity: core.HybridCaching,
		Accesses: []workload.ReadOp{{OID: 1, Attr: 0}}})
	if set := s.prefetchSet(1); len(set) == 0 {
		t.Fatal("prefetch still inactive at min samples")
	}
}

func TestUpdateDeterminism(t *testing.T) {
	// Same seed, same request stream: identical updates.
	runOnce := func() uint64 {
		db := oodb.New(oodb.Config{NumObjects: 50})
		k, s := newTestServer(t, Config{DB: db, UpdateProb: 0.5, Seed: 42})
		var reqs []Request
		for i := 0; i < 20; i++ {
			reqs = append(reqs, Request{
				Granularity: core.AttributeCaching,
				Accesses:    reads(i%7, (i+1)%7),
			})
		}
		serve(k, s, reqs...)
		return db.TotalWrites()
	}
	if a, b := runOnce(), runOnce(); a != b || a == 0 {
		t.Fatalf("updates not deterministic: %d vs %d", a, b)
	}
}
