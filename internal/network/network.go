// Package network models the wireless communication substrate of §4: two
// dedicated point-to-point channels of 19.2 Kbps shared by all mobile
// clients — one upstream (queries) and one downstream (results) — plus the
// message-size accounting (11-byte header with IP address and CRC) and the
// client disconnection schedules used by Experiment #6.
package network

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/sim"
)

// Bandwidth and framing constants from §4 of the paper.
const (
	// WirelessBandwidthBps is the wireless channel bandwidth: 19.2 Kbps.
	WirelessBandwidthBps = 19200.0
	// DiskBandwidthBps models a fast SCSI disk: 40 Mbps.
	DiskBandwidthBps = 40e6
	// MemoryBandwidthBps models main memory: 100 Mbps.
	MemoryBandwidthBps = 100e6
	// HeaderSize is the per-message header: IP address + CRC (11 bytes).
	HeaderSize = 11
	// OIDSize is the wire size of an object identifier.
	OIDSize = 4
	// AttrRefSize is the wire size of an attribute reference within a
	// request or reply entry.
	AttrRefSize = 1
	// RefreshTimeSize is the wire size of the refresh-time estimate the
	// server attaches to every returned item (§3.2).
	RefreshTimeSize = 4
	// QueryDescSize is the wire size of the query descriptor (predicate,
	// projection, and query-type bits).
	QueryDescSize = 16
)

// Radio energy model. §2 of the paper motivates small-granularity caching
// with battery life ("caching a page will result in wasting of energy");
// these constants quantify it using era-typical wireless-modem draw
// (~1.9 W transmitting, ~1.5 W receiving) at the 19.2 Kbps channel rate.
const (
	// TxPowerWatts / RxPowerWatts are the radio's power draw while
	// transmitting and receiving.
	TxPowerWatts = 1.9
	RxPowerWatts = 1.5
)

// TxEnergy returns the Joules a client spends transmitting `bytes` at the
// wireless rate.
func TxEnergy(bytes int) float64 {
	return TxPowerWatts * float64(bytes) * 8 / WirelessBandwidthBps
}

// RxEnergy returns the Joules a client spends receiving `bytes` at the
// wireless rate.
func RxEnergy(bytes int) float64 {
	return RxPowerWatts * float64(bytes) * 8 / WirelessBandwidthBps
}

// Channel is a shared FCFS wireless link. Transfer time is message size
// divided by bandwidth; contention queues behind the sim.Resource.
type Channel struct {
	res       *sim.Resource
	bandwidth float64 // bits per second
	bytesSent uint64
	messages  uint64
}

// NewChannel creates a channel with the given bandwidth in bits/second.
func NewChannel(k *sim.Kernel, name string, bandwidthBps float64) *Channel {
	if bandwidthBps <= 0 {
		panic("network: channel bandwidth must be positive")
	}
	return &Channel{
		res:       sim.NewResource(k, name, 1),
		bandwidth: bandwidthBps,
	}
}

// TransferTime returns the seconds needed to ship `bytes` at this
// channel's bandwidth (excluding queueing).
func (c *Channel) TransferTime(bytes int) float64 {
	if bytes < 0 {
		panic(fmt.Sprintf("network: negative message size %d", bytes))
	}
	return float64(bytes) * 8 / c.bandwidth
}

// SendState holds the progress of one resumable channel send. The zero
// value is ready to use; a completed send resets it so the same state can
// drive the next transfer. Callers embed one per concurrently-outstanding
// send (a client has at most one).
type SendState struct {
	pc    uint8
	bytes int
	start float64
}

const (
	sendAcquire uint8 = iota // next: acquire the channel
	sendHold                 // acquired; next: hold the transfer time
	sendDone                 // transfer done; next: release and account
)

// SendStep occupies the channel for the transfer duration of a message of
// the given size, queueing FCFS behind other senders. It returns true when
// the message has been fully delivered; false means the machine is waiting
// (queued for the channel or mid-transfer) and must call SendStep again
// from the Step that its wake triggers.
func (c *Channel) SendStep(m *sim.Machine, st *SendState, bytes int) bool {
	return c.SendDeferredStep(m, st, func(float64) int { return bytes })
}

// SendDeferredStep queues for the channel and, once at the head of the
// queue, calls sizeFn with the time spent waiting to learn the message
// size — then transfers it. It implements the paper's timeout heuristic
// (§5.3): a reply that has queued too long can be shrunk (prefetched items
// shed) at the moment delivery begins. Returns true when delivered; false
// while waiting.
func (c *Channel) SendDeferredStep(m *sim.Machine, st *SendState, sizeFn func(waited float64) int) bool {
	for {
		switch st.pc {
		case sendAcquire:
			st.start = m.Now()
			st.pc = sendHold
			if !c.res.AcquireCall(m) {
				return false
			}
		case sendHold:
			st.bytes = sizeFn(m.Now() - st.start)
			st.pc = sendDone
			m.Hold(c.TransferTime(st.bytes))
			return false
		case sendDone:
			c.res.Release()
			c.bytesSent += uint64(st.bytes)
			c.messages++
			st.pc = sendAcquire
			return true
		}
	}
}

// Register wires the channel into an observability registry under the
// given series prefix: cumulative busy fraction (the report differences
// consecutive samples into windowed busy/idle utilization), instantaneous
// queue depth, and cumulative bytes/messages. No-op when reg is disabled.
func (c *Channel) Register(reg *obs.Registry, prefix string) {
	if !reg.Enabled() {
		return
	}
	reg.Gauge(prefix+".utilization", c.Utilization)
	reg.Gauge(prefix+".queue", func() float64 { return float64(c.res.QueueLen()) })
	reg.Gauge(prefix+".bytes", func() float64 { return float64(c.bytesSent) })
	reg.Gauge(prefix+".messages", func() float64 { return float64(c.messages) })
}

// Utilization reports the time-average busy fraction of the channel.
func (c *Channel) Utilization() float64 { return c.res.Utilization() }

// MeanWait reports the average queueing delay per message.
func (c *Channel) MeanWait() float64 { return c.res.MeanWait() }

// BytesSent reports the cumulative payload shipped.
func (c *Channel) BytesSent() uint64 { return c.bytesSent }

// Messages reports the number of messages sent.
func (c *Channel) Messages() uint64 { return c.messages }

// RequestSize returns the wire size of an upstream query message carrying
// an existent list of n entries (each an (OID, attr) pair the client has
// already satisfied locally, §3.1.2).
func RequestSize(existentEntries int) int {
	if existentEntries < 0 {
		panic("network: negative existent list length")
	}
	return HeaderSize + QueryDescSize + existentEntries*(OIDSize+AttrRefSize)
}

// ReplyEntrySize returns the wire size of one reply entry for the given
// item: identifier, attribute reference, refresh-time estimate, and the
// payload (a whole object or a single attribute value).
func ReplyEntrySize(it oodb.Item) int {
	return OIDSize + AttrRefSize + RefreshTimeSize + it.Size()
}

// Outage is a half-open disconnection interval [Start, End).
type Outage struct {
	Start, End float64
}

// Schedule is a per-client disconnection schedule: the client is
// unreachable during any of its outages. Outages must be added in
// non-overlapping ascending order (BuildOutages does this).
type Schedule struct {
	outages []Outage
}

// AddOutage appends a disconnection window. It panics on malformed or
// out-of-order windows.
func (s *Schedule) AddOutage(o Outage) {
	if o.End <= o.Start {
		panic(fmt.Sprintf("network: outage end %v <= start %v", o.End, o.Start))
	}
	if n := len(s.outages); n > 0 && o.Start < s.outages[n-1].End {
		panic("network: outages must be non-overlapping and ascending")
	}
	s.outages = append(s.outages, o)
}

// Connected reports whether the client is reachable at time t.
func (s *Schedule) Connected(t float64) bool {
	// Binary search for the first outage ending after t.
	i := sort.Search(len(s.outages), func(i int) bool { return s.outages[i].End > t })
	return i == len(s.outages) || t < s.outages[i].Start
}

// Outages returns a copy of the schedule's windows.
func (s *Schedule) Outages() []Outage {
	return append([]Outage(nil), s.outages...)
}
