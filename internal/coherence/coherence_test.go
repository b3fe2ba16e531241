package coherence

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/oodb"
)

func attr(oid int, a int) oodb.Item { return oodb.AttrItem(oodb.OID(oid), oodb.AttrID(a)) }

func TestRefreshTimeNoWrites(t *testing.T) {
	e := NewRefreshEstimator(0)
	// Never written in 100s: provisional lease of another 100s.
	if rt := e.RefreshTime(attr(1, 0), 100); rt != 100 {
		t.Fatalf("RT with no writes = %v, want 100", rt)
	}
	if exp := 100 + e.RefreshTime(attr(1, 0), 100); exp != 200 {
		t.Fatalf("expiry = %v, want 200", exp)
	}
}

func TestRefreshTimeSingleWrite(t *testing.T) {
	e := NewRefreshEstimator(0)
	e.ObserveWrite(attr(1, 0), 10)
	// One write = zero inter-arrival durations: provisional lease is the
	// time elapsed since that write.
	if rt := e.RefreshTime(attr(1, 0), 40); rt != 30 {
		t.Fatalf("RT with one write = %v, want 30", rt)
	}
	if rt := e.RefreshTime(attr(1, 0), 10); rt != 0 {
		t.Fatalf("RT at the write instant = %v, want 0", rt)
	}
	if writeCount(e, attr(1, 0)) != 1 {
		t.Fatalf("WriteCount = %d", writeCount(e, attr(1, 0)))
	}
}

func TestRefreshTimeFormula(t *testing.T) {
	it := attr(1, 0)
	// Writes at 0, 10, 30: durations 10, 20 -> mean 15, std 5.
	for _, beta := range []float64{-1, 0, 1, 2} {
		e := NewRefreshEstimator(beta)
		e.ObserveWrite(it, 0)
		e.ObserveWrite(it, 10)
		e.ObserveWrite(it, 30)
		want := 15 + beta*5
		if got := e.RefreshTime(it, 100); math.Abs(got-want) > 1e-9 {
			t.Fatalf("beta=%v: RT = %v, want %v", beta, got, want)
		}
		if exp := 100 + e.RefreshTime(it, 100); math.Abs(exp-(100+want)) > 1e-9 {
			t.Fatalf("beta=%v: expiry = %v", beta, exp)
		}
	}
}

func TestRefreshTimeClampedNonNegative(t *testing.T) {
	e := NewRefreshEstimator(-10)
	it := attr(2, 3)
	e.ObserveWrite(it, 0)
	e.ObserveWrite(it, 10)
	e.ObserveWrite(it, 30)
	if rt := e.RefreshTime(it, 50); rt != 0 {
		t.Fatalf("RT = %v, want 0 (clamped)", rt)
	}
	if exp := 50 + e.RefreshTime(it, 50); exp != 50 {
		t.Fatalf("expiry = %v, want 50", exp)
	}
}

func TestBetaMonotonicity(t *testing.T) {
	// Larger beta must never shorten the lease (given positive std).
	rts := make([]float64, 0, 3)
	for _, beta := range []float64{-1, 0, 1} {
		e := NewRefreshEstimator(beta)
		it := attr(1, 1)
		e.ObserveWrite(it, 0)
		e.ObserveWrite(it, 5)
		e.ObserveWrite(it, 20)
		rts = append(rts, e.RefreshTime(it, 100))
	}
	if !(rts[0] < rts[1] && rts[1] < rts[2]) {
		t.Fatalf("RT not monotone in beta: %v", rts)
	}
}

func TestFrequentWritesShorterLease(t *testing.T) {
	e := NewRefreshEstimator(0)
	hot, cold := attr(1, 0), attr(2, 0)
	for i := 0; i < 10; i++ {
		e.ObserveWrite(hot, float64(i))       // every 1s
		e.ObserveWrite(cold, float64(i*1000)) // every 1000s
	}
	if e.RefreshTime(hot, 1e5) >= e.RefreshTime(cold, 1e5) {
		t.Fatalf("hot RT %v >= cold RT %v", e.RefreshTime(hot, 1e5), e.RefreshTime(cold, 1e5))
	}
}

func TestPerItemIsolation(t *testing.T) {
	e := NewRefreshEstimator(0)
	e.ObserveWrite(attr(1, 0), 0)
	e.ObserveWrite(attr(1, 0), 10)
	// Untouched items behave as never-written (provisional lease = now).
	if e.RefreshTime(attr(1, 1), 500) != 500 {
		t.Fatal("write stream leaked across attributes")
	}
	if e.RefreshTime(attr(2, 0), 500) != 500 {
		t.Fatal("write stream leaked across objects")
	}
	if len(e.streams) != 1 {
		t.Fatalf("tracked items = %d", len(e.streams))
	}
}

// Granting a lease allocates nothing, whether the item has a write history,
// a single write, or none.
func TestRefreshTimeDoesNotAllocate(t *testing.T) {
	e := NewRefreshEstimator(0.5)
	for oid := 0; oid < 200; oid++ {
		e.ObserveWrite(attr(oid, 0), float64(oid))
		e.ObserveWrite(attr(oid, 0), float64(2*oid+1))
		e.ObserveWrite(attr(oid, 1), float64(oid))
	}
	var sum float64
	if allocs := testing.AllocsPerRun(100, func() {
		for oid := 0; oid < 200; oid++ {
			sum += e.RefreshTime(attr(oid, 0), 1000) + e.RefreshTime(attr(oid, 1), 1000) +
				e.RefreshTime(attr(oid, 2), 1000)
		}
	}); allocs != 0 {
		t.Fatalf("600 RefreshTime calls allocate %v times (sum %v)", allocs, sum)
	}
}

func TestOracleObjectVsAttributeGranularity(t *testing.T) {
	db := oodb.New(oodb.Config{NumObjects: 10})
	o := NewOracle(db)

	objIt := oodb.ObjectItem(5)
	attrA := attr(5, 0)
	attrB := attr(5, 1)

	vObj := o.CurrentVersion(objIt)
	vA := o.CurrentVersion(attrA)

	// A write on attribute 1 of object 5...
	db.Write(5, 1)

	// ...makes an object-granularity read an error (OC behaviour),
	if !o.IsError(objIt, vObj) {
		t.Fatal("object-granularity read after foreign-attribute write should error")
	}
	// ...but an attribute-0 read is NOT an error (AC/HC behaviour).
	if o.IsError(attrA, vA) {
		t.Fatal("attribute-granularity read of untouched attribute should not error")
	}
	// And a read of the written attribute (fetched before) is an error.
	if !o.IsError(attrB, 0) {
		t.Fatal("read of written attribute should error")
	}
}

func TestOracleFreshFetchIsClean(t *testing.T) {
	db := oodb.New(oodb.Config{NumObjects: 10})
	o := NewOracle(db)
	db.Write(3, 0)
	db.Write(3, 0)
	it := attr(3, 0)
	v := o.CurrentVersion(it)
	if o.IsError(it, v) {
		t.Fatal("read at current version flagged as error")
	}
	db.Write(3, 0)
	if !o.IsError(it, v) {
		t.Fatal("read after subsequent write not flagged")
	}
}

func TestNewOracleValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewOracle(nil) did not panic")
		}
	}()
	NewOracle(nil)
}

// Property: RefreshTime is always non-negative and equals mean+beta*std of
// the recorded durations when at least one duration exists.
func TestQuickRefreshTimeNonNegative(t *testing.T) {
	f := func(gaps []uint8, betaRaw int8) bool {
		beta := float64(betaRaw) / 32
		e := NewRefreshEstimator(beta)
		it := attr(0, 0)
		now := 0.0
		for _, g := range gaps {
			now += float64(g)
			e.ObserveWrite(it, now)
		}
		rt := e.RefreshTime(it, now+1)
		return rt >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: IsError is monotone — once a read is an error it stays an error
// as more writes land.
func TestQuickErrorMonotone(t *testing.T) {
	f := func(writes uint8) bool {
		db := oodb.New(oodb.Config{NumObjects: 4})
		o := NewOracle(db)
		it := attr(1, 2)
		v := o.CurrentVersion(it)
		wasError := false
		for i := 0; i < int(writes)%20; i++ {
			db.Write(1, 2)
			e := o.IsError(it, v)
			if wasError && !e {
				return false
			}
			wasError = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestParse covers the flag-facing name table, including every alias and
// the rejection of unknown names.
func TestParse(t *testing.T) {
	cases := []struct {
		name string
		want Strategy
		ok   bool
	}{
		{"lease", LeaseStrategy, true},
		{"fixed", FixedLeaseStrategy, true},
		{"fixed-lease", FixedLeaseStrategy, true},
		{"irb", IRBroadcastStrategy, true},
		{"ir-broadcast", IRBroadcastStrategy, true},
		{"", 0, false},
		{"LEASE", 0, false},
		{"broadcast", 0, false},
		{"ir", 0, false},                  // the retired reliable scheme
		{"invalidation-report", 0, false}, // and its long spelling
	}
	for _, tc := range cases {
		got, err := Parse(tc.name)
		if ok := err == nil; ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("Parse(%q) = %v, %v; want %v, ok=%v", tc.name, got, err, tc.want, tc.ok)
		}
	}
	for _, s := range []Strategy{LeaseStrategy, FixedLeaseStrategy, IRBroadcastStrategy} {
		if got, err := Parse(s.String()); err != nil || got != s {
			t.Errorf("Parse(%q) does not round-trip %v", s.String(), s)
		}
	}
}

// writeCount returns the number of writes e has observed on it: one more
// than the durations its write stream recorded.
func writeCount(e *RefreshEstimator, it oodb.Item) uint64 {
	i, ok := e.index.Get(it.Key())
	if !ok {
		return 0
	}
	return e.streams[i].Count() + 1
}

// TestEstimatorStreamsPerItem: every attribute and the whole object of each
// object id get a write stream of their own, however the ids arrive.
func TestEstimatorStreamsPerItem(t *testing.T) {
	e := NewRefreshEstimator(0)
	var items []oodb.Item
	for _, oid := range []oodb.OID{40, 0, 7, 39, 1} {
		items = append(items, oodb.ObjectItem(oid))
		for a := oodb.AttrID(0); a < oodb.NumAttrs; a++ {
			items = append(items, oodb.AttrItem(oid, a))
		}
	}
	for i, it := range items {
		for w := 0; w <= i; w++ {
			e.ObserveWrite(it, float64(w))
		}
	}
	for i, it := range items {
		if got := writeCount(e, it); got != uint64(i+1) {
			t.Fatalf("%v: %d writes, want %d", it, got, i+1)
		}
	}
	if got := writeCount(e, oodb.AttrItem(2, 3)); got != 0 {
		t.Fatalf("unwritten item has %d writes", got)
	}
}
