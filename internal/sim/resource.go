package sim

// waiter is one queued machine and the time it joined the queue (for wait
// statistics). Keeping the timestamp inline avoids a map operation per
// contended acquire on the hot path.
type waiter struct {
	mach  *Machine
	since float64
}

// Resource is a FCFS facility with fixed capacity — the analogue of a CSIM
// facility. The simulation uses capacity-1 resources for the two wireless
// channels and the server disk; contention at these resources is what
// produces the paper's queueing effects (e.g. downlink backlog under the
// Bursty arrival pattern).
//
// A Resource also accumulates utilization and waiting statistics so
// experiments can report channel utilization alongside the paper's metrics.
type Resource struct {
	name     string
	kernel   *Kernel
	capacity int
	inUse    int
	waiters  []waiter

	// statistics
	acquires      uint64
	busyArea      float64 // integral of inUse over time
	lastStatTime  float64
	totalWaitTime float64
}

// NewResource creates a facility with the given capacity (servers).
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: NewResource with non-positive capacity")
	}
	return &Resource{
		name:     name,
		kernel:   k,
		capacity: capacity,
	}
}

// accrue integrates the busy area up to the current time.
func (r *Resource) accrue() {
	now := r.kernel.now
	dt := now - r.lastStatTime
	if dt > 0 {
		r.busyArea += dt * float64(r.inUse)
	}
	r.lastStatTime = now
}

// AcquireCall takes one unit of the resource, queueing FCFS if none is
// free: acquire-with-continuation. It reports whether the unit was granted
// immediately; false means the machine was queued and its Step will fire
// (via the event list, at the grant time) when Release hands it the slot.
// The caller's Step must then resume past its acquire point.
func (r *Resource) AcquireCall(m *Machine) bool {
	r.accrue()
	r.acquires++
	if r.inUse < r.capacity {
		r.inUse++
		return true
	}
	r.waiters = append(r.waiters, waiter{mach: m, since: r.kernel.now})
	return false
}

// Release frees one unit. If machines are queued the unit is handed to the
// head of the queue (the slot never becomes observably free, preserving
// FCFS).
func (r *Resource) Release() {
	r.accrue()
	if r.inUse <= 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters[len(r.waiters)-1] = waiter{}
		r.waiters = r.waiters[:len(r.waiters)-1]
		// Hand the slot over; wake the waiter through the event list so
		// same-time wakeups keep deterministic FIFO order.
		r.totalWaitTime += r.kernel.now - w.since
		w.mach.wake(r.kernel.now)
		return
	}
	r.inUse--
}

// QueueLen reports the number of queued machines.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// Acquires reports the total number of AcquireCall calls.
func (r *Resource) Acquires() uint64 { return r.acquires }

// Utilization reports time-average busy fraction since the start of the
// simulation (per unit of capacity).
func (r *Resource) Utilization() float64 {
	r.accrue()
	if r.kernel.now == 0 {
		return 0
	}
	return r.busyArea / (r.kernel.now * float64(r.capacity))
}

// MeanWait reports the average time spent queued per acquire.
func (r *Resource) MeanWait() float64 {
	if r.acquires == 0 {
		return 0
	}
	return r.totalWaitTime / float64(r.acquires)
}
