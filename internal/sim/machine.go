package sim

// Machine is a simulated actor expressed as a resumable state machine: its
// Step callback runs inline in kernel context each time its wake event
// fires. Resuming a Machine is a method call on the dispatch loop's own
// stack — no goroutine, no channel, no per-resume allocation — and a
// suspended Machine is a few dozen bytes of state.
//
// The discipline:
//
//   - at most one wake is pending per machine (Hold / HoldUntil /
//     Resource grant all go through wake, and a newer wake supersedes any
//     stale one via the generation counter);
//   - Step must return promptly after arranging its next wake (or after
//     Finish); it must never block.
//
// Determinism contract: the order of schedule calls (Hold, HoldUntil,
// AcquireCall, Release, After) fixes the simulation, because every
// event carries the next value of one sequence counter and ties at equal
// times dispatch in that order. DESIGN.md § Execution engine lists the
// wait points of the client loop.
type Machine struct {
	kernel *Kernel
	body   Stepper
	// wakeGen invalidates stale wake events: every wake bumps it and
	// stamps the new event, so at most the latest wake fires.
	wakeGen uint64
	done    bool
	killed  bool
}

// Stepper is a machine body. Step is invoked in kernel context at every
// wake; it must advance the machine to its next wait point (arranging a
// wake via Hold/HoldUntil/AcquireCall) or call m.Finish, then return.
type Stepper interface {
	Step(m *Machine)
}

// SpawnMachine creates a state machine whose first Step fires at the
// current virtual time. name labels the machine at the call site; the
// kernel does not keep it.
func (k *Kernel) SpawnMachine(name string, body Stepper) *Machine {
	return k.SpawnMachineAt(k.now, name, body)
}

// SpawnMachineAt creates a state machine whose first Step fires at
// virtual time t (clamped to now).
func (k *Kernel) SpawnMachineAt(t float64, name string, body Stepper) *Machine {
	if body == nil {
		panic("sim: SpawnMachineAt with nil body")
	}
	if t < k.now {
		t = k.now
	}
	m := &Machine{kernel: k, body: body}
	k.liveM[m] = struct{}{}
	m.wake(t)
	return m
}

// wake schedules (or replaces) the machine's pending Step at time at.
func (m *Machine) wake(at float64) {
	m.wakeGen++
	m.kernel.schedule(at, m, nil)
}

// Now returns the current virtual time.
func (m *Machine) Now() float64 { return m.kernel.now }

// Hold arranges the next Step at now+d (negative d is treated as zero).
// The caller must return from Step afterwards.
func (m *Machine) Hold(d float64) {
	if d < 0 {
		d = 0
	}
	m.wake(m.kernel.now + d)
}

// HoldUntil arranges the next Step at absolute time t and reports whether
// a wake was scheduled. A t at or before the current time returns false
// and schedules nothing — the machine continues inline.
func (m *Machine) HoldUntil(t float64) bool {
	if t <= m.kernel.now {
		return false
	}
	m.wake(t)
	return true
}

// Finish terminates the machine: no further Steps fire and Drain skips
// it.
func (m *Machine) Finish() {
	if m.done {
		return
	}
	m.done = true
	delete(m.kernel.liveM, m)
}
