package sim

// Test scaffolding: a machine body written as a straight-line script, so a
// test reads like the sequential process it models.

// stepFunc adapts a closure to the Stepper interface.
type stepFunc func(m *Machine)

func (f stepFunc) Step(m *Machine) { f(m) }

// ops is a run of script statements. A statement returns true when it
// arranged a wake (the script resumes at the next statement on that wake)
// and false to fall through to the next statement inline.
type ops []func(m *Machine) bool

// script runs its statements in order and then finishes — or, with loop
// set, starts over.
type script struct {
	ops  ops
	pc   int
	loop bool
}

func (s *script) Step(m *Machine) {
	for {
		if s.pc == len(s.ops) {
			if !s.loop {
				m.Finish()
				return
			}
			s.pc = 0
		}
		op := s.ops[s.pc]
		s.pc++
		if op(m) {
			return
		}
	}
}

func cat(parts ...ops) ops {
	var all ops
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// seq is a script that runs once; forever repeats it.
func seq(parts ...ops) *script     { return &script{ops: cat(parts...)} }
func forever(parts ...ops) *script { return &script{ops: cat(parts...), loop: true} }

func hold(d float64) ops {
	return ops{func(m *Machine) bool { m.Hold(d); return true }}
}

func holdUntil(t float64) ops {
	return ops{func(m *Machine) bool { return m.HoldUntil(t) }}
}

func acquire(r *Resource) ops {
	return ops{func(m *Machine) bool { return !r.AcquireCall(m) }}
}

func release(r *Resource) ops {
	return ops{func(m *Machine) bool { r.Release(); return false }}
}

// use is the common acquire–hold–release pattern: occupy r for d seconds
// of service.
func use(r *Resource, d float64) ops { return cat(acquire(r), hold(d), release(r)) }

func do(fn func()) ops {
	return ops{func(m *Machine) bool { fn(); return false }}
}
