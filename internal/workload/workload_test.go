package workload

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/oodb"
	"repro/internal/rng"
)

func TestSkewedHeatSetSizes(t *testing.T) {
	h := NewSkewedHeat(2000, 1).(*skewedHeat)
	if len(h.hot) != 400 {
		t.Fatalf("hot set size %d, want 400 (20%% of 2000)", len(h.hot))
	}
	if h.cold != 1600 {
		t.Fatalf("cold set size %d, want 1600", h.cold)
	}
	for _, oid := range h.hot {
		if int(oid) >= 2000 {
			t.Fatalf("hot oid %d out of range", oid)
		}
	}
}

func TestSkewedHeat8020(t *testing.T) {
	h := NewSkewedHeat(2000, 1)
	hot := hotSet(h.(*skewedHeat))
	r := rng.New(2)
	hotAccesses, total := 0, 0
	for q := 0; q < 2000; q++ {
		for _, oid := range h.PickInto(r, 20, uint64(q), nil) {
			if hot[oid] {
				hotAccesses++
			}
			total++
		}
	}
	frac := float64(hotAccesses) / float64(total)
	if math.Abs(frac-HotAccessProb) > 0.02 {
		t.Fatalf("hot access fraction %v, want ~0.8", frac)
	}
}

// hotSet is h's hot set as a membership map.
func hotSet(h *skewedHeat) map[oodb.OID]bool {
	set := make(map[oodb.OID]bool, len(h.hot))
	for _, oid := range h.hot {
		set[oid] = true
	}
	return set
}

func TestSkewedHeatDistinctPicks(t *testing.T) {
	h := NewSkewedHeat(100, 3)
	r := rng.New(4)
	for q := 0; q < 100; q++ {
		picks := h.PickInto(r, 20, uint64(q), nil)
		seen := map[oodb.OID]bool{}
		for _, oid := range picks {
			if seen[oid] {
				t.Fatalf("duplicate oid %d in query", oid)
			}
			seen[oid] = true
		}
	}
}

func TestSkewedHeatDifferentSeedsDifferentHotSets(t *testing.T) {
	a := NewSkewedHeat(2000, 1).(*skewedHeat)
	b := hotSet(NewSkewedHeat(2000, 2).(*skewedHeat))
	same := 0
	for _, oid := range a.hot {
		if b[oid] {
			same++
		}
	}
	// Random 20% overlap expectation is ~80 of 400; identical sets would
	// be 400.
	if same > 200 {
		t.Fatalf("hot sets overlap too much: %d of %d", same, len(a.hot))
	}
}

func TestChangingSkewedHeatEpochs(t *testing.T) {
	m := NewChangingSkewedHeat(2000, 7, 500)
	csh := m.(*changingSkewedHeat)
	r := rng.New(5)

	m.PickInto(r, 5, 0, nil)
	epoch0 := csh.cur
	m.PickInto(r, 5, 499, nil)
	if csh.cur != epoch0 {
		t.Fatal("hot set changed within an epoch")
	}
	m.PickInto(r, 5, 500, nil)
	if csh.cur == epoch0 {
		t.Fatal("hot set did not change at epoch boundary")
	}
	// Hot sets across epochs must differ.
	overlap := 0
	cur := hotSet(csh.cur)
	for _, oid := range epoch0.hot {
		if cur[oid] {
			overlap++
		}
	}
	if overlap > 200 {
		t.Fatalf("epoch hot sets overlap too much: %d", overlap)
	}
}

func newTestCyclic() HeatModel {
	return NewCyclicHeat(CyclicConfig{
		NumObjects: 100, LoopObjects: 40, LoopPerQuery: 4, Burst: 2, Seed: 6,
	})
}

func TestCyclicHeatBurstRepeats(t *testing.T) {
	m := newTestCyclic()
	r := rng.New(6)
	// Queries 0 and 1 share a loop window (burst=2); query 2 advances it.
	q0 := m.PickInto(r, 10, 0, nil)[:4]
	q1 := m.PickInto(r, 10, 1, nil)[:4]
	q2 := m.PickInto(r, 10, 2, nil)[:4]
	for i := range q0 {
		if q0[i] != q1[i] {
			t.Fatalf("burst window changed within burst: %v vs %v", q0, q1)
		}
	}
	same := 0
	for i := range q0 {
		if q0[i] == q2[i] {
			same++
		}
	}
	if same == len(q0) {
		t.Fatal("loop window did not advance after burst")
	}
}

func TestCyclicHeatPeriodRevisit(t *testing.T) {
	m := newTestCyclic().(*cyclicHeat)
	// Period = (40/4)*2 = 20 queries: query 20 sees query 0's loop window.
	if period := uint64(len(m.loop)/m.loopPerQuery) * m.burst; period != 20 {
		t.Fatalf("period = %d, want 20", period)
	}
	r := rng.New(7)
	q0 := m.PickInto(r, 10, 0, nil)[:4]
	q20 := m.PickInto(r, 10, 20, nil)[:4]
	for i := range q0 {
		if q0[i] != q20[i] {
			t.Fatalf("loop did not revisit at the period: %v vs %v", q0, q20)
		}
	}
}

func TestCyclicHeatNoiseDisjointFromLoop(t *testing.T) {
	m := newTestCyclic().(*cyclicHeat)
	inLoop := map[oodb.OID]bool{}
	for _, oid := range m.loop {
		inLoop[oid] = true
	}
	r := rng.New(8)
	for q := uint64(0); q < 50; q++ {
		picks := m.PickInto(r, 10, q, nil)
		for _, oid := range picks[4:] {
			if inLoop[oid] {
				t.Fatalf("noise draw %d came from the loop pool", oid)
			}
		}
	}
}

func TestHeatValidation(t *testing.T) {
	cases := []func(){
		func() { NewSkewedHeat(1, 0) },
		func() { NewChangingSkewedHeat(100, 0, 0) },
		func() { NewCyclicHeat(CyclicConfig{NumObjects: 4}) },
		func() { NewCyclicHeat(CyclicConfig{NumObjects: 100, LoopPerQuery: 0}) },
		func() { NewCyclicHeat(CyclicConfig{NumObjects: 100, LoopObjects: 100, LoopPerQuery: 1}) },
		func() { NewCyclicHeat(CyclicConfig{NumObjects: 100, LoopObjects: 2, LoopPerQuery: 5}) },
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

func newTestGen(kind Kind) *QueryGen {
	db := oodb.New(oodb.Config{NumObjects: 200, RelSeed: 1})
	return NewQueryGen(QueryGenConfig{
		Kind: kind,
		Heat: NewSkewedHeat(200, 1),
		DB:   db,
	})
}

func TestAssociativeQueryShape(t *testing.T) {
	g := newTestGen(Associative)
	r := rng.New(8)
	q := g.Next(r)
	if len(q.Objects) != DefaultSelectivity {
		t.Fatalf("selected %d objects, want %d", len(q.Objects), DefaultSelectivity)
	}
	if len(q.Reads) != DefaultSelectivity*DefaultAttrsPerObject {
		t.Fatalf("%d reads, want %d", len(q.Reads), DefaultSelectivity*DefaultAttrsPerObject)
	}
	for _, rd := range q.Reads {
		if rd.Attr >= oodb.NumPrimAttrs {
			t.Fatalf("read on non-primitive attribute %d", rd.Attr)
		}
	}
	if q.Kind != Associative || q.Index != 0 {
		t.Fatalf("query metadata: %+v", q)
	}
	if g.Next(r).Index != 1 {
		t.Fatal("query index not increasing")
	}
}

func TestNavigationalQueryDoublesSelectivity(t *testing.T) {
	g := newTestGen(Navigational)
	r := rng.New(9)
	q := g.Next(r)
	if len(q.Reads) != 2*DefaultSelectivity*DefaultAttrsPerObject {
		t.Fatalf("%d reads, want %d", len(q.Reads), 2*DefaultSelectivity*DefaultAttrsPerObject)
	}
	// NQ touches roughly twice the distinct objects of AQ ("doubles the
	// selectivity"); relationship targets may collide with selections so
	// allow slack.
	var g2 Grouping
	if d := len(g2.Objects(q.Reads, nil)); d < DefaultSelectivity+10 {
		t.Fatalf("distinct objects %d, want > %d", d, DefaultSelectivity+10)
	}
}

func TestQueryAttrsDistinctPerObject(t *testing.T) {
	g := newTestGen(Associative)
	r := rng.New(10)
	for i := 0; i < 50; i++ {
		q := g.Next(r)
		perObj := map[oodb.OID]map[oodb.AttrID]bool{}
		for _, rd := range q.Reads {
			if perObj[rd.OID] == nil {
				perObj[rd.OID] = map[oodb.AttrID]bool{}
			}
			if perObj[rd.OID][rd.Attr] {
				t.Fatalf("duplicate attr %d on object %d", rd.Attr, rd.OID)
			}
			perObj[rd.OID][rd.Attr] = true
		}
	}
}

func TestAttrDistributionSkewed(t *testing.T) {
	g := newTestGen(Associative)
	r := rng.New(11)
	counts := make([]int, oodb.NumPrimAttrs)
	for i := 0; i < 500; i++ {
		for _, rd := range g.Next(r).Reads {
			counts[rd.Attr]++
		}
	}
	if counts[0] <= counts[oodb.NumPrimAttrs-1] {
		t.Fatalf("attribute 0 (%d) not hotter than attribute 8 (%d)",
			counts[0], counts[oodb.NumPrimAttrs-1])
	}
	for a, c := range counts {
		if c == 0 {
			t.Fatalf("attribute %d never accessed (must be non-zero probability)", a)
		}
	}
}

func TestQueryGenValidation(t *testing.T) {
	db := oodb.New(oodb.Config{NumObjects: 100})
	heat := NewSkewedHeat(100, 1)
	cases := []QueryGenConfig{
		{DB: db},                                // no heat
		{Heat: heat},                            // no db
		{Heat: heat, DB: db, AttrsPerObj: 1000}, // too many attrs
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			NewQueryGen(cfg)
		}()
	}
}

func TestKindString(t *testing.T) {
	if Associative.String() != "AQ" || Navigational.String() != "NQ" {
		t.Fatal("Kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestPoissonMeanRate(t *testing.T) {
	p := NewPoisson(0.01)
	r := rng.New(12)
	now, n := 0.0, 20000
	for i := 0; i < n; i++ {
		now = p.Next(r, now)
	}
	rate := float64(n) / now
	if math.Abs(rate-0.01)/0.01 > 0.03 {
		t.Fatalf("empirical rate %v, want ~0.01", rate)
	}
}

func TestPoissonMonotone(t *testing.T) {
	p := NewPoisson(1)
	r := rng.New(13)
	now := 0.0
	for i := 0; i < 1000; i++ {
		next := p.Next(r, now)
		if next <= now {
			t.Fatalf("arrival did not advance: %v -> %v", now, next)
		}
		now = next
	}
}

// meanDailyRate is the time-averaged arrival rate of a daily profile.
func meanDailyRate(segs []Segment) float64 {
	total := 0.0
	for _, s := range segs {
		total += s.Rate * (s.EndHour - s.StartHour) * SecondsPerHour
	}
	return total / SecondsPerDay
}

func TestDefaultBurstyProfile(t *testing.T) {
	segs := DefaultBurstySegments()
	if got := meanDailyRate(segs); math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("mean daily rate %v, want 0.01", got)
	}
	// 80% of arrivals in the two bursts.
	burstMass := (0.037*3 + 0.027*3) * SecondsPerHour
	totalMass := meanDailyRate(segs) * SecondsPerDay
	if frac := burstMass / totalMass; math.Abs(frac-0.8) > 1e-9 {
		t.Fatalf("burst fraction %v, want 0.8", frac)
	}
}

func TestBurstyArrivalsClusterInBursts(t *testing.T) {
	b := NewDefaultBursty()
	r := rng.New(14)
	now := 0.0
	inBurst, total := 0, 0
	for now < 10*SecondsPerDay {
		now = b.Next(r, now)
		if now >= 10*SecondsPerDay {
			break
		}
		tod := math.Mod(now, SecondsPerDay) / SecondsPerHour
		if (tod >= 7 && tod < 10) || (tod >= 16 && tod < 19) {
			inBurst++
		}
		total++
	}
	frac := float64(inBurst) / float64(total)
	if math.Abs(frac-0.8) > 0.05 {
		t.Fatalf("burst arrival fraction %v, want ~0.8 (n=%d)", frac, total)
	}
	// Average rate should still be ~0.01.
	rate := float64(total) / (10 * SecondsPerDay)
	if math.Abs(rate-0.01)/0.01 > 0.1 {
		t.Fatalf("empirical bursty rate %v, want ~0.01", rate)
	}
}

func TestBurstyMonotone(t *testing.T) {
	b := NewDefaultBursty()
	r := rng.New(15)
	now := 12 * SecondsPerHour // start mid-day
	for i := 0; i < 2000; i++ {
		next := b.Next(r, now)
		if next <= now {
			t.Fatalf("arrival did not advance at %v", now)
		}
		now = next
	}
}

func TestBurstyValidation(t *testing.T) {
	cases := [][]Segment{
		nil,
		{{0, 12, 0.01}},                 // doesn't reach 24
		{{0, 12, 0.01}, {13, 24, 0.01}}, // gap
		{{0, 12, 0.01}, {12, 24, 0}},    // zero rate
		{{0, 0, 0.01}, {0, 24, 0.01}},   // empty segment
		{{1, 12, 0.01}, {12, 24, 0.01}}, // doesn't start at 0
		{{0, 25, 0.01}},                 // beyond 24
	}
	for i, segs := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			NewBursty(segs)
		}()
	}
}

func TestBuildSchedules(t *testing.T) {
	cfg := DisconnectConfig{
		NumClients: 10, DisconnectedClients: 3,
		DurationHours: 5, Days: 4, Seed: 1,
	}
	scheds := BuildSchedules(cfg)
	if len(scheds) != 10 {
		t.Fatalf("%d schedules", len(scheds))
	}
	for c := 0; c < 3; c++ {
		outages := scheds[c].Outages()
		if len(outages) != 4 {
			t.Fatalf("client %d has %d outages, want 4", c, len(outages))
		}
		for day, o := range outages {
			if o.End-o.Start != 5*SecondsPerHour {
				t.Fatalf("outage duration %v", o.End-o.Start)
			}
			dayStart := float64(day) * SecondsPerDay
			if o.Start < dayStart || o.End > dayStart+SecondsPerDay {
				t.Fatalf("outage %v not within day %d", o, day)
			}
		}
	}
	for c := 3; c < 10; c++ {
		if len(scheds[c].Outages()) != 0 {
			t.Fatalf("connected client %d has outages", c)
		}
	}
}

func TestBuildSchedulesZeroDuration(t *testing.T) {
	scheds := BuildSchedules(DisconnectConfig{
		NumClients: 2, DisconnectedClients: 2, DurationHours: 0, Days: 3, Seed: 1,
	})
	for _, s := range scheds {
		if len(s.Outages()) != 0 {
			t.Fatal("zero-duration config produced outages")
		}
	}
}

func TestBuildSchedulesValidation(t *testing.T) {
	cases := []DisconnectConfig{
		{NumClients: 0},
		{NumClients: 2, DisconnectedClients: 3},
		{NumClients: 2, DisconnectedClients: -1},
		{NumClients: 2, DurationHours: 25},
		{NumClients: 2, Days: -1},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			BuildSchedules(cfg)
		}()
	}
}

// Property: every heat model always returns n distinct valid OIDs.
func TestQuickHeatDistinctValid(t *testing.T) {
	models := []HeatModel{
		NewSkewedHeat(100, 1),
		NewChangingSkewedHeat(100, 2, 50),
		NewCyclicHeat(CyclicConfig{NumObjects: 100, LoopObjects: 25, LoopPerQuery: 5, Seed: 3}),
	}
	for i, m := range models {
		m := m
		f := func(seed uint64, qi uint16, nRaw uint8) bool {
			n := int(nRaw)%20 + 1
			r := rng.New(seed)
			picks := m.PickInto(r, n, uint64(qi), nil)
			if len(picks) > n {
				return false
			}
			seen := map[oodb.OID]bool{}
			for _, oid := range picks {
				if int(oid) >= 100 || seen[oid] {
					return false
				}
				seen[oid] = true
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("model %d: %v", i, err)
		}
	}
}

// Property: bursty arrivals strictly advance from any starting time.
func TestQuickBurstyAdvances(t *testing.T) {
	b := NewDefaultBursty()
	f := func(seed uint64, startRaw uint32) bool {
		r := rng.New(seed)
		now := float64(startRaw % 200000)
		next := b.Next(r, now)
		return next > now && !math.IsInf(next, 0) && !math.IsNaN(next)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSharedPoolDeterministic(t *testing.T) {
	a := SharedPool(1000, 7, 100)
	b := SharedPool(1000, 7, 100)
	if len(a) != 100 {
		t.Fatalf("pool size %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SharedPool not deterministic")
		}
	}
	seen := map[oodb.OID]bool{}
	for _, oid := range a {
		if int(oid) >= 1000 || seen[oid] {
			t.Fatalf("invalid pool member %d", oid)
		}
		seen[oid] = true
	}
}

func TestSharedPoolValidation(t *testing.T) {
	for _, bad := range []struct{ n, k int }{{10, 0}, {10, 10}, {10, 20}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SharedPool(%d,%d) did not panic", bad.n, bad.k)
				}
			}()
			SharedPool(bad.n, 1, bad.k)
		}()
	}
}

func TestSharedSkewedHeatDrawsFromPool(t *testing.T) {
	const n, poolSize = 1000, 50
	pool := SharedPool(n, 3, poolSize)
	inPool := map[oodb.OID]bool{}
	for _, oid := range pool {
		inPool[oid] = true
	}
	h := NewSharedSkewedHeat(n, 3, 99, poolSize, 0.6)
	r := rng.New(4)
	shared, total := 0, 0
	for q := 0; q < 1000; q++ {
		for _, oid := range h.PickInto(r, 10, uint64(q), nil) {
			if inPool[oid] {
				shared++
			}
			total++
		}
	}
	frac := float64(shared) / float64(total)
	// Share prob 0.6 plus occasional private draws landing in the pool.
	if frac < 0.55 || frac > 0.75 {
		t.Fatalf("shared fraction %.3f, want ~0.6", frac)
	}
}

func TestSharedSkewedHeatPoolsMatchAcrossClients(t *testing.T) {
	// Same seed, different clientSeed: identical shared pool, different
	// private hot sets.
	a := NewSharedSkewedHeat(1000, 3, 1, 50, 0.5).(*sharedSkewedHeat)
	b := NewSharedSkewedHeat(1000, 3, 2, 50, 0.5).(*sharedSkewedHeat)
	for i := range a.shared {
		if a.shared[i] != b.shared[i] {
			t.Fatal("shared pools differ across clients")
		}
	}
	overlap := 0
	bHot := hotSet(b.private)
	for _, oid := range a.private.hot {
		if bHot[oid] {
			overlap++
		}
	}
	if overlap == len(a.private.hot) {
		t.Fatal("private hot sets identical across clients")
	}
}

func TestSharedSkewedHeatValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad shareProb did not panic")
		}
	}()
	NewSharedSkewedHeat(100, 1, 2, 10, 1.5)
}

func TestGroupingObjectsAndAttrs(t *testing.T) {
	rd := func(oid, attr int) ReadOp { return ReadOp{OID: oodb.OID(oid), Attr: oodb.AttrID(attr)} }
	reads := []ReadOp{rd(9, 2), rd(4, 0), rd(9, 5), rd(9, 2), rd(7, 1), rd(4, 0), rd(4, 3)}
	var g Grouping
	for round := 0; round < 2; round++ { // the tables are reused across calls
		objs := g.Objects(reads, nil)
		if want := []oodb.OID{9, 4, 7}; !reflect.DeepEqual(objs, want) {
			t.Fatalf("Objects = %v, want first-seen order %v", objs, want)
		}
		for i, oid := range objs {
			if got := g.Index(oid); int(got) != i {
				t.Fatalf("Index(%d) = %d, want %d", oid, got, i)
			}
		}
	}
	if objs := g.Objects(reads[4:], nil); !reflect.DeepEqual(objs, []oodb.OID{7, 4}) || g.Index(4) != 1 {
		t.Fatalf("a later call returned %v with Index(4) = %d", objs, g.Index(4))
	}
	// The generation stamp wraps: a slot stamped by the last generation
	// before the wrap must not read as part of the first one after it.
	g.gen = math.MaxUint32 - 1
	g.Objects(reads[:1], nil) // stamps OID 9 with MaxUint32
	if objs := g.Objects(reads, nil); !reflect.DeepEqual(objs, []oodb.OID{9, 4, 7}) || g.gen != 1 {
		t.Fatalf("after the stamp wrapped: Objects = %v at gen %d", objs, g.gen)
	}
	for oid, want := range map[oodb.OID][]oodb.AttrID{9: {2, 5}, 4: {0, 3}, 7: {1}, 8: nil} {
		if got := AttrsOf(reads, oid, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("AttrsOf(%d) = %v, want first-occurrence order %v", oid, got, want)
		}
	}
}

// TestSkewedColdByRank: the cold set drawn by rank from the hot set's
// ascending copy is the explicit complement the model used to store, and
// a model's draws equal draws from the two explicit lists.
func TestSkewedColdByRank(t *testing.T) {
	for _, n := range []int{2, 3, 10, 500, 2000} {
		for seed := uint64(1); seed <= 5; seed++ {
			h := NewSkewedHeat(n, seed).(*skewedHeat)
			hot := hotSet(h)
			var cold []oodb.OID
			for i := 0; i < n; i++ {
				if !hot[oodb.OID(i)] {
					cold = append(cold, oodb.OID(i))
				}
			}
			if h.cold != len(cold) {
				t.Fatalf("n=%d seed %d: %d cold, want %d", n, seed, h.cold, len(cold))
			}
			for k, want := range cold {
				if got := h.coldAt(k); got != want {
					t.Fatalf("n=%d seed %d: cold object %d is %d, want %d", n, seed, k, got, want)
				}
			}
			a, b := rng.New(seed), rng.New(seed)
			for i := 0; i < 1000; i++ {
				pool := cold
				if b.Bool(HotAccessProb) && len(h.hot) > 0 {
					pool = h.hot
				}
				if len(pool) == 0 {
					pool = h.hot
				}
				if got, want := h.pickOne(a), pool[b.Intn(len(pool))]; got != want {
					t.Fatalf("n=%d seed %d draw %d: %d, explicit lists give %d", n, seed, i, got, want)
				}
			}
		}
	}
}
