package client

import (
	"math"
	"sort"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/oodb"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file is the client's query loop: clientMachine is the open-loop
// query pump and the whole request path — arrival, local probe, broadcast
// air, peer probe, server round trip, reply install — as one resumable
// sim.Stepper scheduled directly on the kernel's event heap. There is one
// server round trip for every channel: a lossless one is a nil fault model
// that delivers every frame. The wait points are the arrival, the
// local-access hold, the uplink, server staging, the downlink, the retry
// timeout and backoff, and the broadcast slots; the order of schedule
// calls at those points, and of every counter, cache, and RNG mutation
// between them, is what testdata/golden_scenarios.json in
// internal/experiment pins.

// clientMachine phases. Each wait point records the phase to re-enter; the
// Step loop advances inline through phases that did not actually wait.
const (
	cmArrive    uint8 = iota // draw next arrival; wait for it
	cmQuery                  // generate the query
	cmProbe                  // probe the local caches
	cmLocalDone              // local holds paid; split air/pull/peer
	cmPeerUp                 // cooperative lookup: probe frame on the uplink
	cmPeerDown               // cooperative lookup: batched reply downlink
	cmRemote                 // peer stage settled; decide the server trip
	cmAttempt                // server round trip: arm one attempt
	cmUp                     // server round trip: uplink transfer
	cmSrv                    // server round trip: server staging
	cmDown                   // server round trip: downlink transfer
	cmTimeout                // attempt failed; wait out the timeout
	cmExpired                // timeout fired; give up or back off
	cmAir                    // sort broadcast items by next delivery
	cmAirWait                // wait for the current item's slot
	cmAirRecv                // receive and cache the current item
	cmDone                   // finish the query record; loop to cmArrive
)

// clientMachine is one mobile host's execution state. All state that must
// survive a wait lives here; the struct is allocated once per client at
// Start and never again.
type clientMachine struct {
	c    *Client
	pc   uint8
	call server.RequestCall
	send network.SendState

	// The shed closure is bound once so SendDeferredStep never allocates.
	shedFn func(float64) int

	scheduled float64
	connected bool
	remote    bool
	peerRadio bool
	rec       trace.QueryRecord
	need      []workload.ReadOp
	fromAir   []oodb.Item
	airIdx    int

	req        server.Request
	reqBytes   int
	items      []server.ReplyItem
	replyBytes int
	rxPending  bool // the reply's receive energy waits on the frame's fate

	attempt  int
	retries  int
	deadline float64
}

// Start spawns the client's simulation machine.
func (c *Client) Start() *sim.Machine {
	return c.kernel.SpawnMachine("client", c.newMachine())
}

func (c *Client) newMachine() *clientMachine {
	cm := &clientMachine{c: c, call: c.srv.NewCall()}
	cm.shedFn = cm.shedReply
	return cm
}

// shedReply is the downlink's deferred-size hook, run when the reply
// reaches the head of the downlink queue. It applies the timeout heuristic
// (§5.3): a reply that queued beyond the threshold sheds its prefetched
// items, shortening the transfer the whole cell is waiting behind. It
// records and returns the wire size of what is left.
func (cm *clientMachine) shedReply(waited float64) int {
	c := cm.c
	if c.shedThreshold > 0 && waited > c.shedThreshold {
		kept := c.scratchKept[:0]
		for _, it := range cm.items {
			if !it.Prefetched {
				kept = append(kept, it)
			}
		}
		c.m.Note(c.kernel.Now(), metrics.ShedItem, uint64(len(cm.items)-len(kept)))
		c.scratchKept = kept
		cm.items = kept
	}
	cm.replyBytes = server.WireSizeItems(cm.items)
	// A lossless downlink (nil fault model) delivers every frame, so its
	// receive energy is charged here, at transfer start; a lossy one is
	// charged after the transfer, by the frame's fate (cmDown). Charging
	// the lossless reply at arrival instead would reorder this client's
	// RadioEnergy sum against the IRB-report and peer-serve charges that
	// land during the transfer, and move the pinned fingerprints.
	cm.rxPending = c.downFaults != nil
	if !cm.rxPending {
		c.m.Spend(c.kernel.Now(), network.RxEnergy(cm.replyBytes))
	}
	return cm.replyBytes
}

// record counts one read's outcome, against the query in flight, in the
// client's account and in the query record.
func (cm *clientMachine) record(o metrics.Outcome) {
	cm.c.m.Read(cm.scheduled, o)
	cm.rec.Count(o)
}

// Step is the client's open-loop query pump.
func (cm *clientMachine) Step(m *sim.Machine) {
	c := cm.c
	for {
		switch cm.pc {
		case cmArrive:
			cm.scheduled = c.arrival.Next(c.rnd, cm.scheduled)
			if cm.scheduled >= c.horizon {
				m.Finish()
				return
			}
			cm.pc = cmQuery
			if m.Now() < cm.scheduled && m.HoldUntil(cm.scheduled) {
				return
			}

		case cmQuery:
			c.gen.NextInto(c.rnd, &c.scratchQuery)
			cm.pc = cmProbe

		default:
			if !cm.processQuery(m) {
				return
			}
		}
	}
}

// processQuery advances the query in c.scratchQuery, issued at
// cm.scheduled, from cmProbe to the end of cmDone. It returns true when the
// query is complete (the pump is back at cmArrive) and false when the
// machine is waiting and must call it again from its next wake.
func (cm *clientMachine) processQuery(m *sim.Machine) bool {
	c := cm.c
	for {
		switch cm.pc {
		case cmProbe:
			q := &c.scratchQuery
			cm.connected = c.sched.Connected(m.Now())
			need := c.scratchNeed[:0]
			cm.rec = trace.QueryRecord{
				ClientID:     c.id,
				Index:        q.Index,
				IssuedAt:     cm.scheduled,
				Reads:        len(q.Reads),
				Disconnected: !cm.connected,
			}
			localDelay := 0.0
			for _, rd := range q.Reads {
				item := core.CoverItem(c.granularity, rd.OID, rd.Attr)
				entry, state, fromStorage := c.local.Probe(item, m.Now())
				switch {
				case fromStorage:
					localDelay += diskSecPerByte * float64(item.Size())
				case state != core.Miss:
					localDelay += memSecPerByte * float64(item.Size())
				}
				o, fetch := metrics.Classify(state, cm.connected)
				if fetch {
					need = append(need, rd)
					continue
				}
				if o.Kind != metrics.Unavailable {
					// A hit may still be an error if a write landed inside
					// the lease; an expired copy served while disconnected
					// frequently is.
					o.Error = c.oracle.IsError(item, entry.Version)
				}
				cm.record(o)
			}
			cm.need = need
			cm.pc = cmLocalDone
			// Local accesses are microseconds each; charge them in one hold
			// so the kernel dispatches one event per query instead of one
			// per read.
			if localDelay > 0 {
				m.Hold(localDelay)
				return false
			}

		case cmLocalDone:
			// Reads covered by the broadcast program are answered from the
			// air; only the rest go point-to-point.
			fromAir := c.scratchAir[:0]
			if c.bcast != nil && cm.connected {
				pull := cm.need[:0] // in-place filter: pull lags the read cursor
				for _, rd := range cm.need {
					item := core.CoverItem(c.granularity, rd.OID, rd.Attr)
					if c.bcast.Covers(item) {
						if !containsItem(fromAir, item) {
							fromAir = append(fromAir, item)
						}
						cm.record(metrics.Outcome{Kind: metrics.FromAir})
						continue
					}
					pull = append(pull, rd)
				}
				cm.need = pull
			}
			cm.fromAir = fromAir
			// Cooperative lookup: ask cell peers for valid copies before
			// paying the server round trip — one probe/reply exchange on the
			// shared channels under the attached fault models, single
			// attempt (a failed exchange falls back to the server; the
			// reliability layer's retries apply only to the server trip).
			cm.peerRadio = false
			if c.peerScan > 0 && cm.connected && len(cm.need) > 0 {
				if c.planPeerFetch(m.Now(), cm.need) {
					cm.peerRadio = true
					cm.pc = cmPeerUp
					continue
				}
				c.m.Note(m.Now(), metrics.PeerMiss, uint64(len(cm.need)))
			}
			cm.pc = cmRemote

		case cmPeerUp:
			if !c.up.SendStep(m, &cm.send, c.peerProbeBytes) {
				return false
			}
			c.m.Spend(m.Now(), network.TxEnergy(c.peerProbeBytes))
			if c.upFaults.Transmit(m.Now()) != network.FrameDelivered {
				c.abortPeerFetch(m.Now(), cm.need)
				cm.pc = cmRemote
				continue
			}
			cm.pc = cmPeerDown

		case cmPeerDown:
			if !c.down.SendStep(m, &cm.send, c.peerReplyBytes) {
				return false
			}
			outcome := c.downFaults.Transmit(m.Now())
			if outcome != network.FrameLost {
				// The frame was received (and, if corrupted, rejected after
				// the fact): the radio energy is spent either way.
				c.m.Spend(m.Now(), network.RxEnergy(c.peerReplyBytes))
			}
			if outcome != network.FrameDelivered {
				c.abortPeerFetch(m.Now(), cm.need)
			} else {
				cm.commitPeerFetch(m.Now())
			}
			cm.pc = cmRemote

		case cmRemote:
			cm.remote = cm.connected && len(cm.need) > 0
			if !cm.remote {
				cm.pc = cmAir
				continue
			}
			cm.req = server.Request{
				ClientID:        c.id,
				Granularity:     c.granularity,
				Accesses:        c.scratchQuery.Reads,
				Need:            cm.need,
				ExistentEntries: int(cm.rec.Hits),
			}
			cm.reqBytes = cm.req.WireSize()
			cm.rec.RequestBytes = cm.reqBytes
			cm.attempt = 0
			cm.retries = 0
			cm.pc = cmAttempt

		// The server round trip: the existent list upstream, server
		// processing, the reply downstream, then the returned items cached.
		// It is attempted up to 1+MaxRetries times; a frame lost or
		// corrupted on either channel costs the attempt, the client waits
		// out the remainder of its timeout, backs off exponentially with
		// jitter, and retransmits. The whole request is retried, so a reply
		// lost downstream makes the server process (and possibly update)
		// the same query again — retransmission is not idempotent, just
		// like a real stateless datagram exchange. When every attempt fails
		// the query is served from stale cache copies via serveDegraded. A
		// lossless channel (nil fault model) delivers every frame, so its
		// one attempt never reaches the timeout or backoff phases.
		case cmAttempt:
			cm.deadline = m.Now() + c.requestTimeout(cm.reqBytes)
			cm.pc = cmUp

		case cmUp:
			if !c.up.SendStep(m, &cm.send, cm.reqBytes) {
				return false
			}
			c.m.Spend(m.Now(), network.TxEnergy(cm.reqBytes))
			if c.upFaults.Transmit(m.Now()) == network.FrameDelivered {
				cm.call.Begin(cm.req)
				cm.pc = cmSrv
				continue
			}
			cm.pc = cmTimeout

		case cmSrv:
			rep, done := cm.call.Step(m)
			if !done {
				return false
			}
			cm.items = rep.Items
			cm.pc = cmDown

		case cmDown:
			if !c.down.SendDeferredStep(m, &cm.send, cm.shedFn) {
				return false
			}
			outcome := c.downFaults.Transmit(m.Now())
			if outcome != network.FrameLost && cm.rxPending {
				// The frame was received in full (and, if corrupted,
				// rejected by the CRC check after the fact): the radio
				// energy is spent either way.
				c.m.Spend(m.Now(), network.RxEnergy(cm.replyBytes))
			}
			if outcome == network.FrameDelivered {
				c.replyEstimate = cm.replyBytes
				cm.installReply(m.Now())
				cm.rec.ReplyBytes = cm.replyBytes
				cm.rec.Retries = cm.retries
				cm.pc = cmAir
				continue
			}
			cm.pc = cmTimeout

		case cmTimeout:
			// The attempt failed somewhere; the client detects it when its
			// timeout expires (or immediately, if the exchange already
			// overran the timeout while queueing).
			cm.pc = cmExpired
			if m.Now() < cm.deadline && m.HoldUntil(cm.deadline) {
				return false
			}

		case cmExpired:
			c.m.Note(m.Now(), metrics.Timeout, 1)
			if cm.attempt >= c.retry.MaxRetries {
				cm.rec.ReplyBytes = 0
				cm.rec.Retries = cm.retries
				cm.rec.TimedOut = true
				cm.serveDegraded()
				cm.pc = cmAir
				continue
			}
			cm.retries++
			c.m.Note(m.Now(), metrics.Retry, 1)
			backoff := c.retry.BackoffBase * math.Pow(2, float64(cm.attempt))
			if backoff > backoffMax {
				backoff = backoffMax
			}
			cm.attempt++
			cm.pc = cmAttempt
			// Jitter in [0.5, 1.5)× the nominal delay decorrelates the
			// retransmissions of clients that lost frames in the same burst.
			m.Hold(backoff * (0.5 + c.retryRnd.Float64()))
			return false

		// Broadcast air: wait for each item's next slot on the broadcast
		// channel (in delivery order, so the total wait is at most one
		// revolution) and cache the copies. A broadcast copy is valid for
		// one cycle: the next revolution would refresh it.
		case cmAir:
			if len(cm.fromAir) == 0 {
				cm.pc = cmDone
				continue
			}
			sort.Slice(cm.fromAir, func(i, j int) bool {
				return c.bcast.NextDelivery(cm.fromAir[i], m.Now()) <
					c.bcast.NextDelivery(cm.fromAir[j], m.Now())
			})
			cm.airIdx = 0
			cm.pc = cmAirWait

		case cmAirWait:
			if cm.airIdx >= len(cm.fromAir) {
				cm.pc = cmDone
				continue
			}
			cm.pc = cmAirRecv
			if m.HoldUntil(c.bcast.NextDelivery(cm.fromAir[cm.airIdx], m.Now())) {
				return false
			}

		case cmAirRecv:
			item := cm.fromAir[cm.airIdx]
			c.m.Spend(m.Now(), network.RxEnergy(c.bcast.SlotBytes()))
			entry := core.Entry{
				Version:   c.oracle.CurrentVersion(item),
				ExpiresAt: m.Now() + c.bcast.Cycle(),
				FetchedAt: m.Now(),
			}
			if c.coherenceMode == coherence.IRBroadcastStrategy {
				entry.ExpiresAt = coherence.NoExpiry
			}
			c.local.Put(item, entry, m.Now())
			cm.airIdx++
			cm.pc = cmAirWait

		case cmDone:
			// Hand the (possibly grown) scratch backing arrays back for reuse.
			c.scratchNeed = cm.need[:0]
			c.scratchAir = cm.fromAir[:0]
			cm.rec.Remote = cm.remote || len(cm.fromAir) > 0 || cm.peerRadio
			cm.rec.CompletedAt = m.Now()
			c.m.RecordQuery(cm.scheduled, m.Now(), cm.remote, !cm.connected)
			if c.tracer != nil {
				c.tracer.Query(cm.rec)
			}
			cm.pc = cmArrive
			return true
		}
	}
}
