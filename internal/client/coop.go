package client

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/oodb"
	"repro/internal/workload"
)

// This file implements cooperative client caching (Joy & Jacob's
// ad-hoc-network scheme adapted to the paper's cellular model): on a
// connected local miss, a client first asks the peers in its cell for
// valid cached copies before paying the server round trip. The scan
// itself is simulation-level knowledge (the harness can see every peer's
// cache), but the exchange is paid for on the wire: one probe frame on
// the cell uplink and one batched reply on the downlink, judged by the
// same fault models as any other frame — a lost probe or reply simply
// falls the reads back to the normal server path, with no retries.
//
// Peer-served reads are charged against the error oracle exactly like
// server-served ones, using the *peer's* cached version: a peer can hand
// out a copy that is already stale, which is the coherence cost the
// cooperative scheme trades for offloading the server. Copies are
// installed with the peer's remaining lease, never a fresh one.

// peerCopy is one staged peer-served read in the current exchange plan.
type peerCopy struct {
	readIdx int32      // index into the query's need slice
	src     int32      // index of the serving peer in c.peers
	item    oodb.Item  // the cached unit covering the read
	entry   core.Entry // the peer's copy at plan time
	newItem bool       // first occurrence of item in this plan
}

// SetPeers installs the client's cell-local peer group and the maximum
// number of peers a miss scans. peers must contain the client itself;
// scanning starts at the next peer and wraps, so load spreads round-robin
// across the cell. Call before the simulation starts.
func (c *Client) SetPeers(peers []*Client, scan int) {
	if scan <= 0 {
		panic("client: SetPeers scan must be positive")
	}
	self := -1
	for i, p := range peers {
		if p == c {
			self = i
			break
		}
	}
	if self < 0 {
		panic("client: SetPeers group must include the client")
	}
	c.peers = peers
	c.peerSelf = self
	c.peerScan = scan
}

// planPeerFetch scans up to peerScan peers for valid copies covering the
// needed reads and stages the exchange plan (served reads, wire sizes).
// It mutates no counters and touches no channels; it reports whether any
// read is peer-servable.
func (c *Client) planPeerFetch(now float64, need []workload.ReadOp) bool {
	got := c.peerGot[:0]
	probeItems := 0
	replyBytes := network.HeaderSize
	scan := c.peerScan
	if scan > len(c.peers)-1 {
		scan = len(c.peers) - 1
	}
	for i, rd := range need {
		item := core.CoverItem(c.granularity, rd.OID, rd.Attr)
		// A query repeating an item is served by the one staged copy.
		dup := false
		for g := range got {
			if got[g].item == item {
				got = append(got, peerCopy{
					readIdx: int32(i), src: got[g].src,
					item: item, entry: got[g].entry,
				})
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		for k := 1; k <= scan; k++ {
			pi := (c.peerSelf + k) % len(c.peers)
			// A peer serves only a copy whose lease still runs, and serving
			// it does not count as an access at the peer.
			if e, ok := c.peers[pi].local.Peek(item); ok && e.ValidAt(now) {
				got = append(got, peerCopy{
					readIdx: int32(i), src: int32(pi),
					item: item, entry: e, newItem: true,
				})
				probeItems++
				replyBytes += network.ReplyEntrySize(item)
				break
			}
		}
	}
	c.peerGot = got
	if len(got) == 0 {
		return false
	}
	c.peerProbeBytes = network.HeaderSize + probeItems*(network.OIDSize+network.AttrRefSize)
	c.peerReplyBytes = replyBytes
	return true
}

// commitPeerFetch lands a successful exchange: records each staged read
// as a peer read checked against the error oracle, installs the copies,
// charges the serving peers' transmit energy, and removes the served reads
// from the query's need list. Reads still left over are peer misses bound
// for the server.
func (cm *clientMachine) commitPeerFetch(now float64) {
	c := cm.c
	for _, g := range c.peerGot {
		cm.record(metrics.Outcome{Kind: metrics.FromPeer, Error: c.oracle.IsError(g.item, g.entry.Version)})
		if g.newItem {
			c.local.Stage(g.item, g.entry, false)
			c.peers[g.src].m.Spend(now, network.TxEnergy(network.ReplyEntrySize(g.item)))
		}
	}
	c.local.Commit(now)
	// Compact need in place: peerGot holds readIdx in ascending order.
	out := cm.need[:0]
	gi := 0
	for i := range cm.need {
		if gi < len(c.peerGot) && int(c.peerGot[gi].readIdx) == i {
			gi++
			continue
		}
		out = append(out, cm.need[i])
	}
	c.peerGot = c.peerGot[:0]
	c.m.Note(now, metrics.PeerMiss, uint64(len(out)))
	cm.need = out
}

// abortPeerFetch discards the staged plan after a lost or corrupted
// exchange frame; every read falls back to the server path.
func (c *Client) abortPeerFetch(now float64, need []workload.ReadOp) {
	c.peerGot = c.peerGot[:0]
	c.m.Note(now, metrics.PeerMiss, uint64(len(need)))
}
