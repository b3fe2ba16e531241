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
	if c.Total() != 3 {
		t.Fatalf("Total = %d", c.Total())
	}
	if er := c.ErrorRate(); er != 1.0/3 {
		t.Fatalf("ErrorRate = %v", er)
	}
	if c.Errors != 1 {
		t.Fatalf("Errors = %d", c.Errors)
	}
}

// TestReadCountsEachOutcome pins the outcome → counter mapping: every read
// lands in exactly one outcome class, only a fresh hit is a hit, an
// unavailable read is not served, a degraded read is a stale one too.
func TestReadCountsEachOutcome(t *testing.T) {
	cases := []struct {
		o    Outcome
		want ReadCounts
	}{
		{Outcome{Kind: FreshHit}, ReadCounts{Hits: 1}},
		{Outcome{Kind: FreshHit, Error: true}, ReadCounts{Hits: 1, Errors: 1}},
		{Outcome{Kind: StaleServed, Error: true}, ReadCounts{Stale: 1, Errors: 1}},
		{Outcome{Kind: Unavailable}, ReadCounts{Unavailable: 1}},
		{Outcome{Kind: Fetched}, ReadCounts{Fetched: 1}},
		{Outcome{Kind: FromAir}, ReadCounts{Air: 1}},
		{Outcome{Kind: FromPeer, Error: true}, ReadCounts{Peer: 1, Errors: 1}},
		{Outcome{Kind: Degraded, Error: true}, ReadCounts{Stale: 1, Degraded: 1, Errors: 1}},
		{Outcome{Kind: Degraded}, ReadCounts{Stale: 1, Degraded: 1}},
	}
	for _, tc := range cases {
		var c Client
		c.Read(0, tc.o)
		if c.ReadCounts != tc.want || c.Total() != 1 {
			t.Errorf("%+v: counted %+v (total %d), want %+v", tc.o, c.ReadCounts, c.Total(), tc.want)
		}
		served := uint64(1)
		if tc.o.Kind == Unavailable {
			served = 0
		}
		if c.Total()-c.Unavailable != served {
			t.Errorf("%+v: %d served reads, want %d", tc.o, c.Total()-c.Unavailable, served)
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
	if c.Queries != 2 || c.Local != 1 || c.Remote != 1 || c.Disconnected != 1 {
		t.Fatalf("Queries = %d,%d,%d,%d", c.Queries, c.Local, c.Remote, c.Disconnected)
	}
	if c.resp.Count() != 2 {
		t.Fatal("response estimator not populated")
	}
}

// TestWarmupDiscards pins the one window: a read and its query are gated
// by the query's issue time, an event and radio energy by the time they
// happen.
func TestWarmupDiscards(t *testing.T) {
	c := Client{Warmup: 100}
	c.Read(50, Outcome{Kind: FreshHit, Error: true})
	c.Read(50, Outcome{Kind: Unavailable})
	c.Read(50, Outcome{Kind: Degraded})
	c.Read(50, Outcome{Kind: FromAir})
	c.Read(50, Outcome{Kind: FromPeer})
	c.RecordQuery(50, 60, true, false)
	for e := Event(0); e < numEvents; e++ {
		c.Note(99, e, 3)
	}
	c.Spend(99, 2.5)
	if c.Account != (Account{}) {
		t.Fatalf("pre-warmup observations recorded: %+v", c.Account)
	}
	c.Read(100, Outcome{Kind: FreshHit})
	if c.Total() != 1 {
		t.Fatal("post-warmup observation dropped")
	}
	// A query issued pre-warmup but completing after is discarded too, and
	// so are its reads: Read is gated by the query's issue time.
	c.RecordQuery(99, 200, true, false)
	c.Read(99, Outcome{Kind: Fetched})
	if c.Queries != 0 || c.Total() != 1 {
		t.Fatal("straddling query recorded")
	}
	// An event or a joule at or after the warm-up counts, whatever the
	// query in flight.
	c.Note(100, ShedItem, 4)
	c.Spend(100, 1.5)
	if c.Events[ShedItem] != 4 || c.RadioEnergy != 1.5 {
		t.Fatalf("post-warmup events dropped: %v, %v J", c.Events, c.RadioEnergy)
	}
}

func TestUnavailable(t *testing.T) {
	var c Client
	c.Read(1, Outcome{Kind: Unavailable})
	c.Read(2, Outcome{Kind: Unavailable})
	if c.Unavailable != 2 || c.Total() != 2 || c.ErrorRate() != 0 {
		t.Fatalf("Unavailable = %d, Total = %d, ErrorRate = %v",
			c.Unavailable, c.Total(), c.ErrorRate())
	}
}

func TestAggregateMerge(t *testing.T) {
	var a Account
	var c1, c2 Client
	c1.Read(0, Outcome{Kind: FreshHit})
	c1.Read(0, Outcome{Kind: FreshHit})
	c1.RecordQuery(0, 1, true, false)
	c1.Note(0, Retry, 2)
	c1.Spend(0, 0.25)
	c2.Read(0, Outcome{Kind: StaleServed, Error: true})
	c2.Read(0, Outcome{Kind: Degraded, Error: true})
	c2.RecordQuery(0, 3, false, false)
	c2.Read(0, Outcome{Kind: Unavailable})
	c2.Note(0, Retry, 1)
	c2.Note(0, PeerMiss, 5)
	c2.Spend(0, 0.5)
	a.Add(&c1.Account)
	a.Add(&c2.Account)
	if hr := a.HitRatio(); hr != 0.4 {
		t.Fatalf("aggregate HitRatio = %v", hr)
	}
	if er := a.ErrorRate(); er != 0.5 {
		t.Fatalf("aggregate ErrorRate = %v", er)
	}
	if mr := a.MeanResponse(); mr != 2 {
		t.Fatalf("aggregate MeanResponse = %v", mr)
	}
	if a.Queries != 2 || a.Local != 1 || a.Remote != 1 || a.Unavailable != 1 || a.Degraded != 1 {
		t.Fatalf("aggregate counters wrong: %+v", a)
	}
	if a.Events[Retry] != 3 || a.Events[PeerMiss] != 5 || a.RadioEnergy != 0.75 {
		t.Fatalf("aggregate events wrong: %v, %v J", a.Events, a.RadioEnergy)
	}
	// Two errors and one unavailable read of five; 0.75 J over two queries.
	if ae, e := a.AccessErrorRate(), a.EnergyPerQuery(); ae != 0.6 || e != 0.375 {
		t.Fatalf("aggregate AccessErrorRate = %v, EnergyPerQuery = %v", ae, e)
	}
}

func TestEmptyAggregates(t *testing.T) {
	var a Account
	if a.HitRatio() != 0 || a.ErrorRate() != 0 || a.MeanResponse() != 0 ||
		a.AccessErrorRate() != 0 || a.EnergyPerQuery() != 0 {
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
	mean, count := c.HourlyResponse()
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
	var a Account
	var c1, c2 Client
	c1.RecordQuery(0, 10, true, false)
	c2.RecordQuery(100, 120, true, false)
	a.Add(&c1.Account)
	a.Add(&c2.Account)
	mean, count := a.HourlyResponse()
	if count[0] != 2 || mean[0] != 15 {
		t.Fatalf("aggregate hour 0: mean=%v count=%d", mean[0], count[0])
	}
}
