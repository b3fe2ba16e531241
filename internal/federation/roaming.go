package federation

import (
	"fmt"
	"sort"

	"repro/internal/coherence"
	"repro/internal/server"
	"repro/internal/sim"
)

// MobilitySchedule maps virtual time to the cell a client is attached to:
// the "possibly under different cells" half of the paper's §6 extension. A
// client's contact server changes as it moves; its cache travels with it,
// so items fetched in one cell keep serving reads in the next — but reads
// that were cell-local before a move may become relayed after it.
type MobilitySchedule struct {
	// handoffs[i] is the time at which the client enters cells[i+1];
	// before handoffs[0] the client is in cells[0].
	cells    []int
	handoffs []float64
}

// NewMobilitySchedule builds a schedule from the initial cell and a list
// of (time, cell) handoffs in ascending time order.
func NewMobilitySchedule(initial int, handoffTimes []float64, cells []int) *MobilitySchedule {
	if len(handoffTimes) != len(cells) {
		panic("federation: handoff times and cells must align")
	}
	for i := 1; i < len(handoffTimes); i++ {
		if handoffTimes[i] <= handoffTimes[i-1] {
			panic("federation: handoff times must be strictly ascending")
		}
	}
	return &MobilitySchedule{
		cells:    append([]int{initial}, cells...),
		handoffs: append([]float64(nil), handoffTimes...),
	}
}

// StaticCell returns a schedule that never moves.
func StaticCell(cell int) *MobilitySchedule {
	return &MobilitySchedule{cells: []int{cell}}
}

// CellAt returns the client's cell at time t.
func (m *MobilitySchedule) CellAt(t float64) int {
	// First handoff time strictly greater than t determines the segment.
	i := sort.SearchFloat64s(m.handoffs, t)
	// handoffs[i-1] <= t < handoffs[i]; at the exact handoff instant the
	// client is already in the new cell (SearchFloat64s returns the first
	// index with handoffs[i] >= t; adjust for equality).
	for i < len(m.handoffs) && m.handoffs[i] <= t {
		i++
	}
	return m.cells[i]
}

// Handoffs returns the number of scheduled cell changes.
func (m *MobilitySchedule) Handoffs() int { return len(m.handoffs) }

// Roamer is a client backend that routes each request through the contact
// server of whatever cell the client occupies at that moment.
type Roamer struct {
	cluster  *Cluster
	mobility *MobilitySchedule
	served   map[int]uint64 // requests handled per cell
}

// NewRoamer builds a roaming backend over the cluster.
func (c *Cluster) NewRoamer(m *MobilitySchedule) *Roamer {
	if m == nil {
		panic("federation: NewRoamer requires a mobility schedule")
	}
	for _, cell := range m.cells {
		if cell < 0 || cell >= len(c.nodes) {
			panic(fmt.Sprintf("federation: mobility schedule references cell %d of %d",
				cell, len(c.nodes)))
		}
	}
	return &Roamer{cluster: c, mobility: m, served: make(map[int]uint64)}
}

// Oracle exposes the global perfect-knowledge oracle.
func (r *Roamer) Oracle() *coherence.Oracle { return r.cluster.oracle }

// NewCall returns a resumable call that routes each request via the
// contact server of the cell the client occupies when the request starts;
// see server.RequestCall.
func (r *Roamer) NewCall() server.RequestCall {
	rc := &roamingCall{roamer: r, cells: make([]server.RequestCall, len(r.cluster.nodes))}
	for i := range rc.cells {
		rc.cells[i] = r.cluster.Contact(i).NewCall()
	}
	return rc
}

// roamingCall holds one contact-server call per cell and steps the one
// the current request started in.
type roamingCall struct {
	roamer *Roamer
	cells  []server.RequestCall
	cur    server.RequestCall
}

// Begin arms the call for one request at the client's current cell; see
// server.RequestCall.
func (rc *roamingCall) Begin(req server.Request) {
	cell := rc.roamer.mobility.CellAt(rc.roamer.cluster.kernel.Now())
	rc.roamer.served[cell]++
	rc.cur = rc.cells[cell]
	rc.cur.Begin(req)
}

// Step advances request processing; see server.RequestCall.Step.
func (rc *roamingCall) Step(m *sim.Machine) (server.Reply, bool) { return rc.cur.Step(m) }

// ServedByCell reports how many requests each cell's contact server
// handled for this client.
func (r *Roamer) ServedByCell() map[int]uint64 {
	out := make(map[int]uint64, len(r.served))
	for k, v := range r.served {
		out[k] = v
	}
	return out
}
