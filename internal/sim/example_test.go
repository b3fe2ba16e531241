package sim_test

import (
	"fmt"

	"repro/internal/sim"
)

// reader takes the disk for 10 s of service: acquire, hold, release.
type reader struct {
	id   int
	disk *sim.Resource
	pc   int
}

func (r *reader) Step(m *sim.Machine) {
	for {
		switch r.pc {
		case 0: // queue for the disk; if it is busy, the grant wakes us
			r.pc = 1
			if !r.disk.AcquireCall(m) {
				return
			}
		case 1: // granted: 10 s of service
			r.pc = 2
			m.Hold(10)
			return
		case 2:
			r.disk.Release()
			fmt.Printf("reader %d done at t=%v\n", r.id, m.Now())
			m.Finish()
			return
		}
	}
}

// Two machines contending for a capacity-1 facility: the second queues
// behind the first, CSIM style.
func Example() {
	k := sim.NewKernel()
	disk := sim.NewResource(k, "disk", 1)
	for i := 1; i <= 2; i++ {
		k.SpawnMachine("reader", &reader{id: i, disk: disk})
	}
	k.RunAll()
	// Output:
	// reader 1 done at t=10
	// reader 2 done at t=20
}

// timer holds once, reports, and finishes.
type timer struct {
	name  string
	delay float64
	armed bool
}

func (t *timer) Step(m *sim.Machine) {
	if !t.armed {
		t.armed = true
		m.Hold(t.delay)
		return
	}
	fmt.Println(t.name, "fires at", m.Now())
	m.Finish()
}

// Machines advance virtual time with Hold; the kernel interleaves them
// deterministically.
func ExampleKernel_SpawnMachine() {
	k := sim.NewKernel()
	k.SpawnMachine("slow", &timer{name: "slow", delay: 5})
	k.SpawnMachine("fast", &timer{name: "fast", delay: 2})
	k.RunAll()
	// Output:
	// fast fires at 2
	// slow fires at 5
}
