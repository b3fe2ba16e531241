package metrics

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestClientBasics(t *testing.T) {
	var c Client
	c.Read(10, Outcome{Kind: FreshHit})
	c.Read(11, Outcome{Kind: FreshHit, Error: true})
	c.Read(12, Outcome{Kind: Fetched})
	if hr := c.HitRatio(); math.Abs(hr-2.0/3) > 1e-12 {
		t.Fatalf("HitRatio = %v", hr)
	}
	if c.Accesses() != 3 {
		t.Fatalf("Accesses = %d", c.Accesses())
	}
	if er := c.ErrorRate(); er != 1.0/3 {
		t.Fatalf("ErrorRate = %v", er)
	}
	if c.Errors() != 1 {
		t.Fatalf("Errors = %d", c.Errors())
	}
}

// TestReadCountsEachOutcome pins the outcome → counter mapping: every read
// is an access, only a fresh hit is a hit, an unavailable read gets no
// error sample, a degraded read is counted as degraded.
func TestReadCountsEachOutcome(t *testing.T) {
	cases := []struct {
		o                               Outcome
		hits, errs, errDenom, unav, deg uint64
	}{
		{Outcome{Kind: FreshHit}, 1, 0, 1, 0, 0},
		{Outcome{Kind: FreshHit, Error: true}, 1, 1, 1, 0, 0},
		{Outcome{Kind: StaleServed, Error: true}, 0, 1, 1, 0, 0},
		{Outcome{Kind: Unavailable}, 0, 0, 0, 1, 0},
		{Outcome{Kind: Fetched}, 0, 0, 1, 0, 0},
		{Outcome{Kind: FromAir}, 0, 0, 1, 0, 0},
		{Outcome{Kind: FromPeer, Error: true}, 0, 1, 1, 0, 0},
		{Outcome{Kind: Degraded, Error: true}, 0, 1, 1, 0, 1},
		{Outcome{Kind: Degraded}, 0, 0, 1, 0, 1},
	}
	for _, tc := range cases {
		var c Client
		c.Read(0, tc.o)
		got := [6]uint64{c.hits.Denom, c.hits.Num, c.errors.Num, c.errors.Denom, c.readsUnavailable, c.degradedReads}
		want := [6]uint64{1, tc.hits, tc.errs, tc.errDenom, tc.unav, tc.deg}
		if got != want {
			t.Errorf("%+v: (accesses, hits, errors, error samples, unavailable, degraded) = %v, want %v", tc.o, got, want)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		state     core.LookupState
		connected bool
		kind      OutcomeKind
		fetch     bool
	}{
		{core.Hit, true, FreshHit, false},
		{core.Hit, false, FreshHit, false},
		{core.Stale, true, Fetched, true},
		{core.Miss, true, Fetched, true},
		{core.Stale, false, StaleServed, false},
		{core.Miss, false, Unavailable, false},
	}
	for _, tc := range cases {
		o, fetch := Classify(tc.state, tc.connected)
		if o != (Outcome{Kind: tc.kind}) || fetch != tc.fetch {
			t.Errorf("Classify(%v, connected=%v) = %+v, %v; want kind %d, %v",
				tc.state, tc.connected, o, fetch, tc.kind, tc.fetch)
		}
	}
}

func TestClientQueries(t *testing.T) {
	var c Client
	c.RecordQuery(0, 2, true, false)
	c.RecordQuery(10, 11, false, true)
	if mr := c.MeanResponse(); math.Abs(mr-1.5) > 1e-12 {
		t.Fatalf("MeanResponse = %v", mr)
	}
	issued, local, remote, disc := c.Queries()
	if issued != 2 || local != 1 || remote != 1 || disc != 1 {
		t.Fatalf("Queries = %d,%d,%d,%d", issued, local, remote, disc)
	}
	if c.resp.Count() != 2 {
		t.Fatal("response estimator not populated")
	}
}

func TestWarmupDiscards(t *testing.T) {
	c := Client{Warmup: 100}
	c.Read(50, Outcome{Kind: FreshHit, Error: true})
	c.Read(50, Outcome{Kind: Unavailable})
	c.Read(50, Outcome{Kind: Degraded})
	c.RecordQuery(50, 60, true, false)
	if c.Accesses() != 0 || c.Errors() != 0 || c.Unavailable() != 0 || c.degradedReads != 0 {
		t.Fatal("pre-warmup observations recorded")
	}
	issued, _, _, _ := c.Queries()
	if issued != 0 {
		t.Fatal("pre-warmup query recorded")
	}
	c.Read(100, Outcome{Kind: FreshHit})
	if c.Accesses() != 1 {
		t.Fatal("post-warmup observation dropped")
	}
	// A query issued pre-warmup but completing after is discarded too, and
	// so are its reads: Read is gated by the query's issue time.
	c.RecordQuery(99, 200, true, false)
	c.Read(99, Outcome{Kind: Fetched})
	issued, _, _, _ = c.Queries()
	if issued != 0 || c.Accesses() != 1 {
		t.Fatal("straddling query recorded")
	}
}

func TestUnavailable(t *testing.T) {
	var c Client
	c.Read(1, Outcome{Kind: Unavailable})
	c.Read(2, Outcome{Kind: Unavailable})
	if c.Unavailable() != 2 || c.Accesses() != 2 || c.errors.Denom != 0 {
		t.Fatalf("Unavailable = %d, Accesses = %d, error samples = %d",
			c.Unavailable(), c.Accesses(), c.errors.Denom)
	}
}

func TestAggregateMerge(t *testing.T) {
	var a Aggregate
	var c1, c2 Client
	c1.Read(0, Outcome{Kind: FreshHit})
	c1.Read(0, Outcome{Kind: FreshHit})
	c1.RecordQuery(0, 1, true, false)
	c2.Read(0, Outcome{Kind: StaleServed, Error: true})
	c2.Read(0, Outcome{Kind: Degraded, Error: true})
	c2.RecordQuery(0, 3, false, false)
	c2.Read(0, Outcome{Kind: Unavailable})
	a.Merge(&c1)
	a.Merge(&c2)
	if hr := a.HitRatio(); hr != 0.4 {
		t.Fatalf("aggregate HitRatio = %v", hr)
	}
	if er := a.ErrorRate(); er != 0.5 {
		t.Fatalf("aggregate ErrorRate = %v", er)
	}
	if mr := a.MeanResponse(); mr != 2 {
		t.Fatalf("aggregate MeanResponse = %v", mr)
	}
	if a.Issued != 2 || a.Local != 1 || a.Remote != 1 || a.Unavail != 1 || a.Degraded != 1 {
		t.Fatalf("aggregate counters wrong: %+v", a)
	}
	if a.String() == "" {
		t.Fatal("empty String")
	}
}

func TestEmptyAggregates(t *testing.T) {
	var a Aggregate
	if a.HitRatio() != 0 || a.ErrorRate() != 0 || a.MeanResponse() != 0 {
		t.Fatal("empty aggregate not zero")
	}
	var c Client
	if c.HitRatio() != 0 || c.ErrorRate() != 0 || c.MeanResponse() != 0 {
		t.Fatal("empty client not zero")
	}
}

func TestHourlyResponseBuckets(t *testing.T) {
	var c Client
	c.RecordQuery(0, 2, true, false)          // hour 0, rt 2
	c.RecordQuery(3600, 3604, true, false)    // hour 1, rt 4
	c.RecordQuery(90000, 90001, false, false) // next day 01:00, rt 1
	var a Aggregate
	a.Merge(&c)
	mean, count := a.HourlyResponse()
	if count[0] != 1 || mean[0] != 2 {
		t.Fatalf("hour 0: mean=%v count=%d", mean[0], count[0])
	}
	if count[1] != 2 || mean[1] != 2.5 {
		t.Fatalf("hour 1: mean=%v count=%d (day wrap)", mean[1], count[1])
	}
	for h := 2; h < 24; h++ {
		if count[h] != 0 {
			t.Fatalf("hour %d unexpectedly populated", h)
		}
	}
}

func TestAggregateHourly(t *testing.T) {
	var a Aggregate
	var c1, c2 Client
	c1.RecordQuery(0, 10, true, false)
	c2.RecordQuery(100, 120, true, false)
	a.Merge(&c1)
	a.Merge(&c2)
	mean, count := a.HourlyResponse()
	if count[0] != 2 || mean[0] != 15 {
		t.Fatalf("aggregate hour 0: mean=%v count=%d", mean[0], count[0])
	}
}
