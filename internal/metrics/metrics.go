// Package metrics collects the three performance metrics of §5 — average
// cache hit ratio, average response time, and error rate — plus supporting
// counters, per client and aggregated across clients.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// hoursPerDay buckets the time-of-day profile.
const hoursPerDay = 24

// secondsPerHour converts simulation time to day buckets.
const secondsPerHour = 3600.0

// OutcomeKind says how one read was served.
type OutcomeKind uint8

// The read outcomes (DESIGN.md §2.1). Only a fresh hit is a hit; every read
// but an unavailable one is served; a fetched or air read is never an error.
const (
	FreshHit    OutcomeKind = iota // a local copy inside its lease
	StaleServed                    // an expired local copy, served while disconnected (§5.6)
	Unavailable                    // no local copy and no server to ask
	Fetched                        // fetched from the server
	FromAir                        // answered from the broadcast channel
	FromPeer                       // a cell peer's valid copy
	Degraded                       // a local copy served after retry exhaustion (DESIGN.md §9.3)
)

// Outcome is one read's outcome: its kind, and whether the perfect-knowledge
// oracle found the served copy out of date.
type Outcome struct {
	Kind  OutcomeKind
	Error bool
}

// Classify turns a local probe into the read's outcome, or reports fetch
// for a connected miss or expired copy (Fetched, unless the air, a peer or
// degradation serves it). The caller sets Error for a served copy.
func Classify(state core.LookupState, connected bool) (o Outcome, fetch bool) {
	switch {
	case state == core.Hit:
		return Outcome{Kind: FreshHit}, false
	case connected:
		return Outcome{Kind: Fetched}, true
	case state == core.Stale:
		return Outcome{Kind: StaleServed}, false
	}
	return Outcome{Kind: Unavailable}, false
}

// Client accumulates one mobile client's measurements. Observations before
// the warm-up horizon are discarded so steady-state numbers are not skewed
// by the initially cold cache (set Warmup to 0 to keep everything, as the
// paper's 4-day averages effectively do).
type Client struct {
	Warmup float64

	hits   stats.Ratio // reads served by a locally unexpired item, over all reads
	errors stats.Ratio // reads that violated coherence, over served reads
	resp   stats.Welford

	queriesIssued       uint64
	queriesLocal        uint64 // fully served from cache
	queriesRemote       uint64 // required a round trip
	queriesDisconnected uint64 // issued while disconnected
	readsUnavailable    uint64 // reads unsatisfiable during disconnection

	// Reliability-layer counters (unreliable channels, DESIGN.md §9).
	retries       uint64 // retransmissions issued
	timeouts      uint64 // request attempts that ended in a timeout
	degradedReads uint64 // reads served from stale copies after retry exhaustion

	hourly [hoursPerDay]stats.Welford // response times by hour of day
}

// Read counts one read's outcome, gated like RecordQuery by its query's
// issue time. Every read is an access; the error rate divides by served
// reads (all but unavailable ones), §5's "percentage of read errors".
func (c *Client) Read(issuedAt float64, o Outcome) {
	if issuedAt < c.Warmup {
		return
	}
	c.hits.Add(o.Kind == FreshHit)
	switch o.Kind {
	case Unavailable:
		c.readsUnavailable++
		return
	case Degraded:
		c.degradedReads++
	}
	c.errors.Add(o.Error)
}

// RecordRetry counts one retransmission issued by the reliability layer.
func (c *Client) RecordRetry(now float64) {
	if now < c.Warmup {
		return
	}
	c.retries++
}

// RecordTimeout counts one request attempt that ended in a timeout.
func (c *Client) RecordTimeout(now float64) {
	if now < c.Warmup {
		return
	}
	c.timeouts++
}

// RecordQuery records one completed query.
func (c *Client) RecordQuery(issuedAt, completedAt float64, remote, disconnected bool) {
	if issuedAt < c.Warmup {
		return
	}
	c.queriesIssued++
	if remote {
		c.queriesRemote++
	} else {
		c.queriesLocal++
	}
	if disconnected {
		c.queriesDisconnected++
	}
	rt := completedAt - issuedAt
	c.resp.Add(rt)
	hour := int(math.Mod(issuedAt/secondsPerHour, hoursPerDay))
	if hour >= 0 && hour < hoursPerDay {
		c.hourly[hour].Add(rt)
	}
}

// HitRatio returns the fraction of reads served by locally valid items.
func (c *Client) HitRatio() float64 { return c.hits.Value() }

// ErrorRate returns the fraction of served reads that violated coherence.
func (c *Client) ErrorRate() float64 { return c.errors.Value() }

// MeanResponse returns the mean query response time in seconds.
func (c *Client) MeanResponse() float64 { return c.resp.Mean() }

// Queries returns (issued, local, remote, disconnected) query counts.
func (c *Client) Queries() (issued, local, remote, disconnected uint64) {
	return c.queriesIssued, c.queriesLocal, c.queriesRemote, c.queriesDisconnected
}

// Unavailable returns the number of unsatisfiable reads.
func (c *Client) Unavailable() uint64 { return c.readsUnavailable }

// Accesses returns the total number of recorded reads.
func (c *Client) Accesses() uint64 { return c.hits.Denom }

// Errors returns the absolute number of erroneous reads.
func (c *Client) Errors() uint64 { return c.errors.Num }

// Register wires the client's running metrics into an observability
// registry under the given series prefix. Sampled over virtual time these
// become the convergence curves a report plots: the hit ratio climbing as
// the cache warms, the error rate settling, the reliability-layer counters
// accumulating. No-op on a disabled registry.
func (c *Client) Register(reg *obs.Registry, prefix string) {
	if !reg.Enabled() {
		return
	}
	reg.Gauge(prefix+".hit_ratio", c.HitRatio)
	reg.Gauge(prefix+".error_rate", c.ErrorRate)
	reg.Gauge(prefix+".mean_response_s", c.MeanResponse)
	reg.Gauge(prefix+".accesses", func() float64 { return float64(c.Accesses()) })
	reg.Gauge(prefix+".retries", func() float64 { return float64(c.retries) })
	reg.Gauge(prefix+".timeouts", func() float64 { return float64(c.timeouts) })
	reg.Gauge(prefix+".degraded_reads", func() float64 { return float64(c.degradedReads) })
}

// Aggregate is the across-clients average the paper reports.
type Aggregate struct {
	Hits    stats.Ratio
	Errs    stats.Ratio
	Resp    stats.Welford
	Issued  uint64
	Local   uint64
	Remote  uint64
	Unavail uint64

	Retries  uint64
	Timeouts uint64
	Degraded uint64

	hourly [hoursPerDay]stats.Welford
}

// Merge folds one client's measurements into the aggregate.
func (a *Aggregate) Merge(c *Client) {
	a.Hits.Merge(c.hits)
	a.Errs.Merge(c.errors)
	a.Resp.Merge(&c.resp)
	a.Issued += c.queriesIssued
	a.Local += c.queriesLocal
	a.Remote += c.queriesRemote
	a.Unavail += c.readsUnavailable
	a.Retries += c.retries
	a.Timeouts += c.timeouts
	a.Degraded += c.degradedReads
	for h := range c.hourly {
		a.hourly[h].Merge(&c.hourly[h])
	}
}

// HourlyResponse returns the pooled mean response time and query count per
// hour of day.
func (a *Aggregate) HourlyResponse() (mean [24]float64, count [24]uint64) {
	for h := range a.hourly {
		mean[h] = a.hourly[h].Mean()
		count[h] = a.hourly[h].Count()
	}
	return mean, count
}

// HitRatio returns the pooled hit ratio across clients.
func (a *Aggregate) HitRatio() float64 { return a.Hits.Value() }

// ErrorRate returns the pooled error rate across clients.
func (a *Aggregate) ErrorRate() float64 { return a.Errs.Value() }

// MeanResponse returns the pooled mean response time.
func (a *Aggregate) MeanResponse() float64 { return a.Resp.Mean() }

// String formats the aggregate as a table-ready fragment.
func (a *Aggregate) String() string {
	return fmt.Sprintf("hit=%.1f%% resp=%.3fs err=%.2f%% queries=%d",
		100*a.HitRatio(), a.MeanResponse(), 100*a.ErrorRate(), a.Issued)
}
