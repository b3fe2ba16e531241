package federation

import (
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file is the contact server's request path: the home partition is
// served locally, remote partitions through the relay cache and the
// backbone. The wait points are the home and remote servers' staging (via
// server.Call), the backbone latency holds, and the two backbone link
// transfers.

// contactCall phases. The remote-partition loop (fcNext → fcLink →
// fcRemote → fcBack → fcNext) visits owners in node order (determinism).
const (
	fcStart  uint8 = iota // split the request; arm the home sub-call
	fcHome                // stepping the home-partition call
	fcNext                // advance to the next remote partition
	fcLink                // forward-link transfer to the owner
	fcRemote              // stepping the remote owner's call
	fcBack                // return-link transfer; fill relay; collect
)

// remotePart is one node's share of a split request, kept as a field so
// its backing arrays persist across queries.
type remotePart struct {
	accesses []workload.ReadOp
	need     []workload.ReadOp
}

// contactCall serves one client request at a cell's contact server. One
// call is owned by one client and reused across its queries; the
// part/forward/item buffers are recycled, which is safe because a client
// consumes each reply before issuing its next request.
type contactCall struct {
	cs  *ContactServer
	req server.Request
	pc  uint8

	call server.Call       // one server sub-call, re-bound per partition
	send network.SendState // one backbone transfer at a time

	parts   []remotePart
	items   []server.ReplyItem // backing for the collected reply
	out     server.Reply
	o       int // current remote node in the fcNext loop
	served  []server.ReplyItem
	fwdBuf  []workload.ReadOp // relay-filtered forwards (never aliases parts)
	batch   []core.BatchEntry // relay-fill scratch
	forward []workload.ReadOp // what actually goes to the owner
	rep     server.Reply      // remote owner's reply, pending the back link
}

// NewCall returns a reusable resumable call bound to this cell's contact
// server; see server.RequestCall.
func (cs *ContactServer) NewCall() server.RequestCall {
	return &contactCall{cs: cs}
}

// Begin arms the call for one request; see server.RequestCall.
func (cc *contactCall) Begin(req server.Request) {
	cc.req = req
	cc.pc = fcStart
}

// Step advances request processing; see server.RequestCall.Step.
func (cc *contactCall) Step(m *sim.Machine) (server.Reply, bool) {
	cs := cc.cs
	c := cs.cluster
	for {
		switch cc.pc {
		case fcStart:
			// Split the request by owning node.
			if cap(cc.parts) < len(c.nodes) {
				cc.parts = make([]remotePart, len(c.nodes))
			}
			cc.parts = cc.parts[:len(c.nodes)]
			for i := range cc.parts {
				cc.parts[i].accesses = cc.parts[i].accesses[:0]
				cc.parts[i].need = cc.parts[i].need[:0]
			}
			for _, rd := range cc.req.Accesses {
				o := c.Owner(rd.OID)
				cc.parts[o].accesses = append(cc.parts[o].accesses, rd)
			}
			for _, rd := range cc.req.Need {
				o := c.Owner(rd.OID)
				cc.parts[o].need = append(cc.parts[o].need, rd)
			}
			cc.out = server.Reply{Items: cc.items[:0]}
			cc.o = 0
			// Home partition: evaluated exactly as the single-server system.
			homeReq := cc.req
			homeReq.Accesses = cc.parts[cs.home.id].accesses
			homeReq.Need = cc.parts[cs.home.id].need
			if len(homeReq.Accesses) > 0 || len(homeReq.Need) > 0 {
				cc.call.Reset(cs.home.srv, homeReq)
				cc.pc = fcHome
				continue
			}
			cc.pc = fcNext

		case fcHome:
			rep, done := cc.call.Step(m)
			if !done {
				return server.Reply{}, false
			}
			cc.out.Items = append(cc.out.Items, rep.Items...)
			cc.pc = fcNext

		case fcNext:
			for cc.o < len(c.nodes) {
				if cc.o == cs.home.id {
					cc.o++
					continue
				}
				pt := &cc.parts[cc.o]
				if len(pt.accesses) == 0 && len(pt.need) == 0 {
					cc.o++
					continue
				}
				break
			}
			if cc.o >= len(c.nodes) {
				cc.items = cc.out.Items
				cc.pc = fcStart
				return cc.out, true
			}
			// Relay cache: serve valid remote copies from the cell,
			// forwarding only the rest. Prefetch decisions stay with the
			// owner, so the relay only answers exact reads.
			home := cs.home
			need := cc.parts[cc.o].need
			now := m.Now()
			cc.served = cc.served[:0]
			forward := need
			if home.relay != nil {
				cc.fwdBuf = cc.fwdBuf[:0]
				for _, rd := range need {
					it := core.CoverItem(cc.req.Granularity, rd.OID, rd.Attr)
					if e, st := home.relay.Lookup(it, now); st == core.Hit {
						home.relayHits++
						cc.served = append(cc.served, server.ReplyItem{
							Item:    it,
							Version: e.Version,
							Refresh: e.ExpiresAt - now,
						})
						continue
					}
					home.relayMisses++
					cc.fwdBuf = append(cc.fwdBuf, rd)
				}
				forward = cc.fwdBuf
			}
			// The owner must still see every access for its update model
			// and heat tracking, even when the relay answered the reads.
			cc.forward = forward
			home.relayed += uint64(len(forward))
			cc.pc = fcLink
			m.Hold(c.latency)
			return server.Reply{}, false

		case fcLink:
			link := cs.home.links[cc.o]
			bytes := network.RequestSize(len(cc.parts[cc.o].accesses) - len(cc.forward))
			if !link.SendStep(m, &cc.send, bytes) {
				return server.Reply{}, false
			}
			remoteReq := cc.req
			remoteReq.Accesses = cc.parts[cc.o].accesses
			remoteReq.Need = cc.forward
			cc.call.Reset(c.nodes[cc.o].srv, remoteReq)
			cc.pc = fcRemote

		case fcRemote:
			rep, done := cc.call.Step(m)
			if !done {
				return server.Reply{}, false
			}
			cc.rep = rep
			cc.pc = fcBack
			m.Hold(c.latency)
			return server.Reply{}, false

		case fcBack:
			back := c.nodes[cc.o].links[cs.home.id]
			if !back.SendStep(m, &cc.send, cc.rep.WireSize()) {
				return server.Reply{}, false
			}
			// Fill the relay cache with what came back (leases included).
			home := cs.home
			if home.relay != nil && len(cc.rep.Items) > 0 {
				now := m.Now()
				cc.batch = cc.batch[:0]
				for _, item := range cc.rep.Items {
					cc.batch = append(cc.batch, core.BatchEntry{Item: item.Item, Entry: item.Entry(now)})
				}
				home.relay.InsertBatch(cc.batch, now)
			}
			cc.out.Items = append(cc.out.Items, cc.served...)
			cc.out.Items = append(cc.out.Items, cc.rep.Items...)
			cc.o++
			cc.pc = fcNext
		}
	}
}
