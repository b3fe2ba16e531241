// Package metrics keeps each client's account: the three performance
// metrics of §5 — average cache hit ratio, average response time, and
// error rate — and every counter behind them, per client and pooled
// across clients.
package metrics

import (
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

// ReadCounts counts reads by outcome. Every read lands in exactly one of
// Hits, Stale, Unavailable, Fetched, Air and Peer; Degraded (of Stale) and
// Errors (of the served reads) are sub-counts.
type ReadCounts struct {
	Hits        uint64 // fresh hits
	Stale       uint64 // expired local copies served, degraded ones included
	Degraded    uint64 // stale copies served after retry exhaustion
	Unavailable uint64 // reads with no copy and no server to ask
	Fetched     uint64 // reads fetched from the server
	Air         uint64 // reads answered from the broadcast channel
	Peer        uint64 // reads served from a cell peer's cache
	Errors      uint64 // served reads whose copy was out of date
}

// Count adds one read's outcome: the one place an outcome becomes counts.
func (r *ReadCounts) Count(o Outcome) {
	switch o.Kind {
	case FreshHit:
		r.Hits++
	case StaleServed:
		r.Stale++
	case Degraded:
		r.Stale++
		r.Degraded++
	case Unavailable:
		r.Unavailable++
	case Fetched:
		r.Fetched++
	case FromAir:
		r.Air++
	case FromPeer:
		r.Peer++
	}
	if o.Error {
		r.Errors++
	}
}

// Add folds o's counts into r.
func (r *ReadCounts) Add(o ReadCounts) {
	r.Hits += o.Hits
	r.Stale += o.Stale
	r.Degraded += o.Degraded
	r.Unavailable += o.Unavailable
	r.Fetched += o.Fetched
	r.Air += o.Air
	r.Peer += o.Peer
	r.Errors += o.Errors
}

// Total returns the number of reads counted.
func (r *ReadCounts) Total() uint64 {
	return r.Hits + r.Stale + r.Unavailable + r.Fetched + r.Air + r.Peer
}

// HitRatio returns the fraction of reads that were fresh hits.
func (r *ReadCounts) HitRatio() float64 { return ratio(r.Hits, r.Total()) }

// ErrorRate returns the fraction of served reads (all but unavailable
// ones) that were errors: §5's "percentage of read errors".
func (r *ReadCounts) ErrorRate() float64 { return ratio(r.Errors, r.Total()-r.Unavailable) }

// ratio returns num/denom, 0 when empty.
func ratio(num, denom uint64) float64 {
	if denom == 0 {
		return 0
	}
	return float64(num) / float64(denom)
}

// Event is a client event the account tallies.
type Event uint8

// The client events.
const (
	Retry       Event = iota // a retransmission issued (DESIGN.md §9)
	Timeout                  // a request attempt that ended in a timeout
	ShedItem                 // a prefetched item shed by the timeout heuristic (§5.3)
	IRReport                 // an IR-over-broadcast report received
	IRMiss                   // a report frame lost to channel faults while tuned in
	ForcedReval              // a whole-cache lease void after an unrecoverable report gap
	PeerMiss                 // a connected local miss that still went to the server
	numEvents
)

// Account is one client's tally, or a pool of clients' folded by Add: its
// reads by outcome, its queries and their response times, its events, and
// the energy its radio spent.
type Account struct {
	ReadCounts

	Queries      uint64 // queries issued
	Local        uint64 // queries served fully from the cache
	Remote       uint64 // queries that needed a server round trip
	Disconnected uint64 // queries issued while disconnected

	Events      [numEvents]uint64 // indexed by Event
	RadioEnergy float64           // Joules spent transmitting and receiving (§2's battery cost)

	resp   stats.Welford
	hourly [hoursPerDay]stats.Welford // response times by hour of day
}

// Add folds o into a. Pooling clients in a fixed order gives the same
// float sums and Welford merges every time.
func (a *Account) Add(o *Account) {
	a.ReadCounts.Add(o.ReadCounts)
	a.Queries += o.Queries
	a.Local += o.Local
	a.Remote += o.Remote
	a.Disconnected += o.Disconnected
	for e := range o.Events {
		a.Events[e] += o.Events[e]
	}
	a.RadioEnergy += o.RadioEnergy
	a.resp.Merge(&o.resp)
	for h := range o.hourly {
		a.hourly[h].Merge(&o.hourly[h])
	}
}

// MeanResponse returns the mean query response time in seconds.
func (a *Account) MeanResponse() float64 { return a.resp.Mean() }

// AccessErrorRate returns the fraction of all reads not served correctly:
// errors plus unavailable reads, the metric Experiment 7 sweeps against
// frame loss.
func (a *Account) AccessErrorRate() float64 { return ratio(a.Errors+a.Unavailable, a.Total()) }

// EnergyPerQuery returns the mean radio Joules spent per query.
func (a *Account) EnergyPerQuery() float64 {
	if a.Queries == 0 {
		return 0
	}
	return a.RadioEnergy / float64(a.Queries)
}

// HourlyResponse returns the mean response time and query count per hour
// of day.
func (a *Account) HourlyResponse() (mean [hoursPerDay]float64, count [hoursPerDay]uint64) {
	for h := range a.hourly {
		mean[h] = a.hourly[h].Mean()
		count[h] = a.hourly[h].Count()
	}
	return mean, count
}

// Client is one client's account behind the warm-up gate: what happens
// before Warmup is discarded, so steady-state numbers are not skewed by the
// initially cold cache (0 keeps everything, as the paper's 4-day averages
// effectively do). A read and its query are gated by the query's issue
// time, an event and radio energy by the time they happen.
type Client struct {
	Warmup float64
	Account
}

// Read counts one read's outcome.
func (c *Client) Read(issuedAt float64, o Outcome) {
	if issuedAt < c.Warmup {
		return
	}
	c.Count(o)
}

// RecordQuery records one completed query.
func (c *Client) RecordQuery(issuedAt, completedAt float64, remote, disconnected bool) {
	if issuedAt < c.Warmup {
		return
	}
	c.Queries++
	if remote {
		c.Remote++
	} else {
		c.Local++
	}
	if disconnected {
		c.Disconnected++
	}
	rt := completedAt - issuedAt
	c.resp.Add(rt)
	hour := int(math.Mod(issuedAt/secondsPerHour, hoursPerDay))
	if hour >= 0 && hour < hoursPerDay {
		c.hourly[hour].Add(rt)
	}
}

// Note counts n occurrences of event e at time now.
func (c *Client) Note(now float64, e Event, n uint64) {
	if now < c.Warmup {
		return
	}
	c.Events[e] += n
}

// Spend charges the radio joules of energy at time now.
func (c *Client) Spend(now, joules float64) {
	if now < c.Warmup {
		return
	}
	c.RadioEnergy += joules
}

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
	reg.Gauge(prefix+".accesses", func() float64 { return float64(c.Total()) })
	reg.Gauge(prefix+".retries", func() float64 { return float64(c.Events[Retry]) })
	reg.Gauge(prefix+".timeouts", func() float64 { return float64(c.Events[Timeout]) })
	reg.Gauge(prefix+".degraded_reads", func() float64 { return float64(c.Degraded) })
}
