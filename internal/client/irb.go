package client

import (
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/oodb"
)

// This file is the client half of the IR-over-broadcast coherence scheme
// (IRBroadcastStrategy): the server-side broadcaster (the experiment
// harness) pushes, every report period, the set of items written during
// the trailing report window over a dedicated broadcast downlink, and
// calls ApplyIRBroadcast on every connected client that received the
// frame — or MissIRBroadcast on one that lost it to channel faults.
//
// The windowed semantics follow Barbará & Imieliński's broadcasting-
// timestamps variant: as long as the gap since the client's last received
// report stays inside the window, each report invalidates exactly the
// cached items it names. Once the gap grows past what the next report can
// cover — disconnection, or frame loss under the PR 3 fault model — the
// client can no longer bound its staleness and *force-revalidates*: every
// cached lease is voided in place, so the copies survive for disconnected
// operation but must be revalidated against the server before counting as
// hits again. Every decision here reads only what the reports carry and
// when they arrived; the oracle only counts the errors that result.

// irSlack absorbs floating-point drift when a report lands exactly one
// window after the previous one.
const irSlack = 1e-9

// ApplyIRBroadcast delivers one IR-over-broadcast report to the client:
// items is the canonical-order set of attribute items written during the
// report's trailing window, wireBytes the report's frame size (receive
// energy). The harness must call this only while the client is connected
// and only under IRBroadcastStrategy.
func (c *Client) ApplyIRBroadcast(now float64, items []oodb.Item, wireBytes int) {
	if c.coherenceMode != coherence.IRBroadcastStrategy {
		panic("client: IR-over-broadcast report delivered to a non-irb client")
	}
	c.m.Spend(now, network.RxEnergy(wireBytes))
	c.m.Note(now, metrics.IRReport, 1)
	if now-c.irLastGood > c.irWindow+irSlack {
		// The report's window does not reach back to the last report this
		// client saw: writes in the gap are unrecoverable, revalidate.
		c.forceRevalidate(now)
		c.irLastGood = now
		return
	}
	c.irLastGood = now
	// Incremental invalidation: drop exactly the named items, mapped onto
	// the client's caching granularity (an attribute write invalidates the
	// whole cached object under OC/NC). Report items arrive in canonical
	// (OID, Attr) order, so removal order — which shapes replacement-policy
	// tie-breaks — is reproducible.
	for _, it := range items {
		c.local.Remove(core.CoverItem(c.granularity, it.OID, it.Attr))
	}
}

// MissIRBroadcast tells the client it was tuned in but failed to decode a
// report frame (loss or CRC-detected corruption; rxBytes > 0 when the
// corrupted frame was received in full and its radio energy spent).
// period is the broadcast period: if even the *next* report's window will
// not reach back to the last received report, waiting cannot recover the
// gap and the client force-revalidates immediately.
func (c *Client) MissIRBroadcast(now, period float64, rxBytes int) {
	if c.coherenceMode != coherence.IRBroadcastStrategy {
		panic("client: IR-over-broadcast miss delivered to a non-irb client")
	}
	if rxBytes > 0 {
		c.m.Spend(now, network.RxEnergy(rxBytes))
	}
	c.m.Note(now, metrics.IRMiss, 1)
	if now-c.irLastGood+period > c.irWindow+irSlack {
		c.forceRevalidate(now)
		// Every lease is voided, so staleness is bounded from here on; the
		// next received report only needs to cover writes after this point.
		c.irLastGood = now
	}
}

// forceRevalidate voids every cached lease in place: the copies survive for
// disconnected or degraded serving, but must be revalidated at the server.
func (c *Client) forceRevalidate(now float64) {
	c.m.Note(now, metrics.ForcedReval, 1)
	c.local.VoidLeases(now)
}
