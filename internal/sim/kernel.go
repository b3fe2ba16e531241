// Package sim is a discrete-event simulation kernel.
//
// It is the substitute for CSIM, the proprietary simulation library the
// paper's evaluation is built on. The modelling primitives mirror CSIM's:
//
//   - a Kernel owns the virtual clock and the future event list;
//   - a Machine is a simulated actor: a resumable state machine whose
//     Step callback runs inline on the dispatch loop each time its wake
//     event fires, advancing virtual time with Hold and contending for
//     facilities with Resource;
//   - a Resource is a FCFS facility (wireless channel, disk arm, ...) with
//     fixed capacity, utilization accounting, and queue statistics.
//
// Determinism: the kernel is single-threaded. Every actor step and timer
// callback runs on the stack of whoever called Run, one at a time, and
// events at equal timestamps are dispatched in schedule order. Simulations
// are therefore exactly reproducible for a given seed, which the tests and
// EXPERIMENTS.md rely on.
//
// Performance: the future event list is a concrete binary heap over
// []event values — no per-event heap allocation and no interface boxing on
// the push/pop path (container/heap costs one *event allocation plus an
// interface conversion per event). The heap's backing array doubles as the
// event free-list: pops only shrink the length, so the storage of retired
// events is reused by subsequent pushes, and Drain keeps the capacity for
// kernels that are reused across Run calls. Resuming an actor is a method
// call; a suspended one is a few dozen bytes of state, which is what makes
// million-client fleets tractable.
package sim

import (
	"fmt"
	"math"
)

// event is a future-event-list entry: "step machine" or "call fn".
type event struct {
	at   float64
	seq  uint64 // schedule order; ties broken FIFO
	mach *Machine
	gen  uint64 // machine wake generation; stale wakes are skipped
	fn   func()
}

// before reports whether e sorts ahead of f on the future event list:
// min (at, seq). seq is unique, so the order is total.
func (e *event) before(f *event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// Kernel drives a single simulation run. The zero value is not usable;
// construct with NewKernel.
type Kernel struct {
	now    float64
	seq    uint64
	events []event // binary min-heap on (at, seq)
	liveM  map[*Machine]struct{}
	nsteps uint64
}

// NewKernel returns a kernel with the clock at zero and an empty event list.
func NewKernel() *Kernel {
	return &Kernel{liveM: make(map[*Machine]struct{})}
}

// Now returns the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// Steps returns the number of events dispatched so far. It is exposed for
// kernel benchmarks and runaway-simulation guards in tests.
func (k *Kernel) Steps() uint64 { return k.nsteps }

// push appends ev to the heap and restores the heap invariant (sift-up).
func (k *Kernel) push(ev event) {
	h := append(k.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	k.events = h
}

// pop removes and returns the minimum event (sift-down). The vacated tail
// slot is zeroed so retired closures and machines are collectable; the backing
// array itself is retained as the free-list for future pushes.
func (k *Kernel) pop() event {
	h := k.events
	min := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h[right].before(&h[left]) {
			least = right
		}
		if !h[least].before(&h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	k.events = h
	return min
}

// schedule appends an event to the future event list: a wake of machine m
// (stamped with its current wake generation) or, when m is nil, a call of
// fn. One sequence counter orders both kinds, so machine steps and fn
// timers interleave in one global FIFO order at equal times.
func (k *Kernel) schedule(at float64, m *Machine, fn func()) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past (at=%g, now=%g)", at, k.now))
	}
	k.seq++
	ev := event{at: at, seq: k.seq, mach: m, fn: fn}
	if m != nil {
		ev.gen = m.wakeGen
	}
	k.push(ev)
}

// After schedules fn to run at now+d in kernel context. fn must not block;
// it is intended for lightweight timers (statistics sampling, LRD aging).
func (k *Kernel) After(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	k.schedule(k.now+d, nil, fn)
}

// Run dispatches events until the event list is empty or the clock would
// pass `until`. It returns the final clock value. Machines still waiting
// when Run returns remain suspended; call Drain to terminate them.
func (k *Kernel) Run(until float64) float64 {
	for len(k.events) > 0 {
		if k.events[0].at > until {
			k.now = until
			return k.now
		}
		ev := k.pop()
		k.now = ev.at
		k.nsteps++
		if ev.fn != nil {
			ev.fn()
			continue
		}
		// Machine step: runs inline on this stack. Stale wakes (superseded
		// by a newer wake) and wakes of finished/killed machines are
		// skipped.
		if m := ev.mach; m != nil && !m.done && !m.killed && ev.gen == m.wakeGen {
			m.body.Step(m)
		}
	}
	return k.now
}

// RunAll dispatches events until the event list is empty.
func (k *Kernel) RunAll() float64 { return k.Run(math.Inf(1)) }

// Drain terminates every live machine and discards the future event
// list. Machines are killed in place — a suspended machine holds no stack,
// so there is nothing to unwind and the kill has no side effects. Call it
// once per simulation after Run.
func (k *Kernel) Drain() {
	for m := range k.liveM {
		m.killed = true
		delete(k.liveM, m)
	}
	// Discard the remaining future events; the simulation is over. The
	// backing array is kept (length 0) so a reused kernel starts with a
	// warm free-list.
	for i := range k.events {
		k.events[i] = event{}
	}
	k.events = k.events[:0]
}

// LiveMachines reports the number of state machines that have been spawned
// and have not yet finished.
func (k *Kernel) LiveMachines() int { return len(k.liveM) }
