package metrics

import (
	"math"
	"testing"
)

func TestClientBasics(t *testing.T) {
	var c Client
	c.RecordAccess(10, true)
	c.RecordAccess(11, true)
	c.RecordAccess(12, false)
	if hr := c.HitRatio(); math.Abs(hr-2.0/3) > 1e-12 {
		t.Fatalf("HitRatio = %v", hr)
	}
	if c.Accesses() != 3 {
		t.Fatalf("Accesses = %d", c.Accesses())
	}
	c.RecordError(10, false)
	c.RecordError(11, true)
	if er := c.ErrorRate(); er != 0.5 {
		t.Fatalf("ErrorRate = %v", er)
	}
	if c.Errors() != 1 {
		t.Fatalf("Errors = %d", c.Errors())
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
	c.RecordAccess(50, true)
	c.RecordError(50, true)
	c.RecordQuery(50, 60, true, false)
	c.RecordUnavailable(50)
	if c.Accesses() != 0 || c.Errors() != 0 || c.Unavailable() != 0 {
		t.Fatal("pre-warmup observations recorded")
	}
	issued, _, _, _ := c.Queries()
	if issued != 0 {
		t.Fatal("pre-warmup query recorded")
	}
	c.RecordAccess(100, true)
	if c.Accesses() != 1 {
		t.Fatal("post-warmup observation dropped")
	}
	// A query issued pre-warmup but completing after is discarded too.
	c.RecordQuery(99, 200, true, false)
	issued, _, _, _ = c.Queries()
	if issued != 0 {
		t.Fatal("straddling query recorded")
	}
}

func TestUnavailable(t *testing.T) {
	var c Client
	c.RecordUnavailable(1)
	c.RecordUnavailable(2)
	if c.Unavailable() != 2 {
		t.Fatalf("Unavailable = %d", c.Unavailable())
	}
}

func TestAggregateMerge(t *testing.T) {
	var a Aggregate
	var c1, c2 Client
	c1.RecordAccess(0, true)
	c1.RecordAccess(0, true)
	c1.RecordError(0, false)
	c1.RecordError(0, false)
	c1.RecordQuery(0, 1, true, false)
	c2.RecordAccess(0, false)
	c2.RecordAccess(0, false)
	c2.RecordError(0, true)
	c2.RecordError(0, true)
	c2.RecordQuery(0, 3, false, false)
	c2.RecordUnavailable(0)
	a.Merge(&c1)
	a.Merge(&c2)
	if hr := a.HitRatio(); hr != 0.5 {
		t.Fatalf("aggregate HitRatio = %v", hr)
	}
	if er := a.ErrorRate(); er != 0.5 {
		t.Fatalf("aggregate ErrorRate = %v", er)
	}
	if mr := a.MeanResponse(); mr != 2 {
		t.Fatalf("aggregate MeanResponse = %v", mr)
	}
	if a.Issued != 2 || a.Local != 1 || a.Remote != 1 || a.Unavail != 1 {
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
