package server

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// This file is the server's request path. Evaluating a request takes
// simulated time — a memory hold per buffered object, a disk
// acquire/hold/release per miss — so it is a resumable Call that a client
// machine arms with Begin and advances with Step from its own wakes.
// Transfer of request and reply over the wireless channels is the
// caller's (client's) responsibility, matching the paper's point-to-point
// flow.

// RequestCall is a resumable request invocation. Begin arms the call with
// a request; Step advances it from the machine's Step callback until it
// reports completion. A call is owned by one client and reused across its
// requests. Both *Server (via NewCall) and the federation contact server
// implement it.
type RequestCall interface {
	// Begin arms the call for one request. The previous request's reply
	// must have been consumed.
	Begin(req Request)
	// Step advances the call inside machine m. It returns the reply and
	// true when processing is complete; (zero, false) means the machine is
	// waiting (memory hold, disk queue, backbone transfer) and must call
	// Step again from its next wake.
	Step(m *sim.Machine) (Reply, bool)
}

// Call evaluates one request against a server: stage the needed objects
// through buffer/disk, apply the update model, and assemble the reply. The
// zero value is not usable; obtain one from NewCall (fixed server) or
// drive it with Reset (per-partition reuse, as the federation does).
type Call struct {
	srv *Server
	req Request
	pc  uint8
	idx int        // cursor into sc.order during staging
	sc  reqScratch // the reply's items alias sc.items until the next request
}

// Call phases. The staging loop re-enters at the phase recorded before
// each wait.
const (
	callStart    uint8 = iota // validate, count, collect distinct OIDs
	callStage                 // stage sc.order[idx]
	callMemDone               // memory hold finished → next object
	callDiskHold              // disk granted → hold the read time
	callDiskDone              // disk read finished → release, buffer, next
)

// NewCall returns a reusable resumable call bound to this server. The call
// owns its request buffers; of a client, the server keeps only HC heat.
func (s *Server) NewCall() RequestCall { return &Call{srv: s} }

// Begin arms the call for one request against the bound server.
func (c *Call) Begin(req Request) {
	c.req = req
	c.pc = callStart
}

// Reset re-binds the call to a (possibly different) server and arms it —
// the federation's contact path serves home and remote partitions through
// one Call, switching the target node between sub-requests.
func (c *Call) Reset(s *Server, req Request) {
	c.srv = s
	c.req = req
	c.pc = callStart
}

// Step advances request processing; see RequestCall.Step.
// queriesServed/recordHeat/distinct-OID collection run up front; then every
// distinct OID is brought into the memory buffer (buffer hit → memory
// hold; miss → tier mirror, disk acquire, hold, release, buffer insert);
// then applyUpdates and assembleReply, which never wait.
func (c *Call) Step(m *sim.Machine) (Reply, bool) {
	s := c.srv
	for {
		switch c.pc {
		case callStart:
			if !c.req.Granularity.Valid() {
				panic("server: request with invalid granularity")
			}
			s.queriesServed++
			if c.req.Granularity == core.HybridCaching {
				s.recordHeat(c.req) // its one reader is HC's prefetchSet
			}
			// Stage every object the query evaluates over. The server must
			// read each qualified object to evaluate predicates and project
			// attributes, whether or not the client ended up needing it
			// shipped.
			c.sc.order = s.group.Objects(c.req.Accesses, c.sc.order[:0])
			c.idx = 0
			c.pc = callStage

		case callStage:
			if c.idx >= len(c.sc.order) {
				// Update model (§4, sixth dimension): each object accessed
				// by the query is updated with probability U; all attributes
				// the query selected on that object are modified.
				s.applyUpdates(m.Now(), c.req, c.sc.order)
				rep := s.assembleReply(c.req, &c.sc)
				c.pc = callStart
				return rep, true
			}
			oid := c.sc.order[c.idx]
			if _, hit := s.buf.Get(oid); hit {
				s.bufferHits++
				c.pc = callMemDone
				m.Hold(memSecPerObject)
				return Reply{}, false
			}
			s.diskReads++
			if s.store != nil {
				s.stageDurable(oid)
			}
			c.pc = callDiskHold
			if !s.disk.AcquireCall(m) {
				return Reply{}, false
			}

		case callDiskHold:
			c.pc = callDiskDone
			m.Hold(diskSecPerObject)
			return Reply{}, false

		case callDiskDone:
			s.disk.Release()
			s.buf.Put(c.sc.order[c.idx], struct{}{})
			c.idx++
			c.pc = callStage

		case callMemDone:
			c.idx++
			c.pc = callStage
		}
	}
}
