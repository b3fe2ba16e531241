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
// call is owned by one client and reused across its queries. It keeps only
// the collected reply, which the client holds until it installs it; the
// processing state is a contactScratch taken from the home node's free
// list for the request in flight.
type contactCall struct {
	cs  *ContactServer
	req server.Request
	pc  uint8
	st  *contactScratch // nil between requests

	items []server.ReplyItem // backing for the collected reply
	out   server.Reply
}

// contactScratch is the processing state of one request in flight at a
// contact server. Its buffers are recycled across requests and clients:
// each is consumed before the request that filled it completes.
type contactScratch struct {
	call server.Call       // one server sub-call, re-bound per partition
	send network.SendState // one backbone transfer at a time

	parts   []remotePart
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
			var st *contactScratch
			if k := len(cs.home.free); k > 0 {
				st, cs.home.free = cs.home.free[k-1], cs.home.free[:k-1]
			} else {
				st = &contactScratch{}
			}
			cc.st = st
			// Split the request by owning node.
			if cap(st.parts) < len(c.nodes) {
				st.parts = make([]remotePart, len(c.nodes))
			}
			st.parts = st.parts[:len(c.nodes)]
			for i := range st.parts {
				st.parts[i].accesses = st.parts[i].accesses[:0]
				st.parts[i].need = st.parts[i].need[:0]
			}
			for _, rd := range cc.req.Accesses {
				o := c.Owner(rd.OID)
				st.parts[o].accesses = append(st.parts[o].accesses, rd)
			}
			for _, rd := range cc.req.Need {
				o := c.Owner(rd.OID)
				st.parts[o].need = append(st.parts[o].need, rd)
			}
			cc.out = server.Reply{Items: cc.items[:0]}
			st.o = 0
			// Home partition: evaluated exactly as the single-server system.
			homeReq := cc.req
			homeReq.Accesses = st.parts[cs.home.id].accesses
			homeReq.Need = st.parts[cs.home.id].need
			if len(homeReq.Accesses) > 0 || len(homeReq.Need) > 0 {
				st.call.Reset(cs.home.srv, homeReq)
				cc.pc = fcHome
				continue
			}
			cc.pc = fcNext

		case fcHome:
			rep, done := cc.st.call.Step(m)
			if !done {
				return server.Reply{}, false
			}
			cc.out.Items = append(cc.out.Items, rep.Items...)
			cc.pc = fcNext

		case fcNext:
			st := cc.st
			for st.o < len(c.nodes) {
				if st.o == cs.home.id {
					st.o++
					continue
				}
				pt := &st.parts[st.o]
				if len(pt.accesses) == 0 && len(pt.need) == 0 {
					st.o++
					continue
				}
				break
			}
			if st.o >= len(c.nodes) {
				cs.home.free = append(cs.home.free, st)
				cc.st = nil
				cc.items = cc.out.Items
				cc.pc = fcStart
				return cc.out, true
			}
			// Relay cache: serve valid remote copies from the cell,
			// forwarding only the rest. Prefetch decisions stay with the
			// owner, so the relay only answers exact reads.
			home := cs.home
			need := st.parts[st.o].need
			now := m.Now()
			st.served = st.served[:0]
			forward := need
			if home.relay != nil {
				st.fwdBuf = st.fwdBuf[:0]
				for _, rd := range need {
					it := core.CoverItem(cc.req.Granularity, rd.OID, rd.Attr)
					if e, hit := home.relay.Lookup(it, now); hit == core.Hit {
						home.relayHits++
						st.served = append(st.served, server.ReplyItem{
							Item:    it,
							Version: e.Version,
							Refresh: e.ExpiresAt - now,
						})
						continue
					}
					home.relayMisses++
					st.fwdBuf = append(st.fwdBuf, rd)
				}
				forward = st.fwdBuf
			}
			// The owner must still see every access for its update model
			// and heat tracking, even when the relay answered the reads.
			st.forward = forward
			home.relayed += uint64(len(forward))
			cc.pc = fcLink
			m.Hold(c.latency)
			return server.Reply{}, false

		case fcLink:
			st := cc.st
			link := cs.home.links[st.o]
			bytes := network.RequestSize(len(st.parts[st.o].accesses) - len(st.forward))
			if !link.SendStep(m, &st.send, bytes) {
				return server.Reply{}, false
			}
			remoteReq := cc.req
			remoteReq.Accesses = st.parts[st.o].accesses
			remoteReq.Need = st.forward
			st.call.Reset(c.nodes[st.o].srv, remoteReq)
			cc.pc = fcRemote

		case fcRemote:
			rep, done := cc.st.call.Step(m)
			if !done {
				return server.Reply{}, false
			}
			cc.st.rep = rep
			cc.pc = fcBack
			m.Hold(c.latency)
			return server.Reply{}, false

		case fcBack:
			st := cc.st
			back := c.nodes[st.o].links[cs.home.id]
			if !back.SendStep(m, &st.send, st.rep.WireSize()) {
				return server.Reply{}, false
			}
			// Fill the relay cache with what came back (leases included).
			home := cs.home
			if home.relay != nil && len(st.rep.Items) > 0 {
				now := m.Now()
				st.batch = st.batch[:0]
				for _, item := range st.rep.Items {
					st.batch = append(st.batch, core.BatchEntry{Item: item.Item, Entry: item.Entry(now)})
				}
				home.relay.InsertBatch(st.batch, now)
			}
			cc.out.Items = append(cc.out.Items, st.served...)
			cc.out.Items = append(cc.out.Items, st.rep.Items...)
			st.o++
			cc.pc = fcNext
		}
	}
}
