package sim

import (
	"reflect"
	"testing"
)

// TestMachineResourceFCFS queues machines on one capacity-1 resource and
// checks grants come out in arrival order, with the wait statistics the
// arrival times imply.
func TestMachineResourceFCFS(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "res", 1)
	var order []string
	user := func(name string, service float64) *script {
		return seq(use(r, service), do(func() { order = append(order, name) }))
	}

	// Holder occupies the resource for [0, 10); arrivals at t=1..4.
	k.SpawnMachine("holder", user("holder", 10))
	for i, name := range []string{"a1", "a2", "a3", "a4"} {
		k.SpawnMachineAt(float64(i+1), name, user(name, 5))
	}

	k.RunAll()
	k.Drain()

	want := []string{"holder", "a1", "a2", "a3", "a4"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("completion order = %v, want %v", order, want)
	}
	// Waits: a1 9, a2 13, a3 17, a4 21 → mean over 5 acquires = 12.
	if got, want := r.MeanWait(), 60.0/5; got != want {
		t.Fatalf("MeanWait = %g, want %g", got, want)
	}
	if k.LiveMachines() != 0 {
		t.Fatalf("LiveMachines = %d after Drain", k.LiveMachines())
	}
}

// TestDrainKillsHalfResumedMachines leaves machines suspended at different
// wait points (holding, queued on a resource, finished) and checks Drain
// retires them without stepping any of them again.
func TestDrainKillsHalfResumedMachines(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "res", 1)
	steps := map[string]int{}

	// m0 holds the resource forever (suspended in an infinite hold).
	hold0 := 0
	k.SpawnMachine("m0", stepFunc(func(m *Machine) {
		steps["m0"]++
		if hold0 == 0 {
			hold0 = 1
			if !r.AcquireCall(m) {
				return
			}
		}
		m.Hold(1e9)
	}))
	// m1 queues behind it and never gets the grant.
	k.SpawnMachine("m1", stepFunc(func(m *Machine) {
		steps["m1"]++
		if !r.AcquireCall(m) {
			return
		}
		t.Error("m1 acquired a resource that is never released")
	}))
	// m2 finishes cleanly before the drain.
	k.SpawnMachine("m2", stepFunc(func(m *Machine) {
		steps["m2"]++
		m.Finish()
	}))
	k.Run(100)
	if k.LiveMachines() != 2 { // m0 and m1; m2 finished
		t.Fatalf("LiveMachines before Drain = %d, want 2", k.LiveMachines())
	}
	k.Drain()
	if k.LiveMachines() != 0 {
		t.Fatalf("after Drain: %d machines live", k.LiveMachines())
	}
	want := map[string]int{"m0": 1, "m1": 1, "m2": 1}
	if !reflect.DeepEqual(steps, want) {
		t.Fatalf("step counts = %v, want %v", steps, want)
	}
	// A drained kernel must be reusable and killed machines must not step.
	k.RunAll()
	if !reflect.DeepEqual(steps, want) {
		t.Fatalf("killed machine stepped after Drain: %v", steps)
	}
}

// TestMachineCancelWake checks a revoked timer never fires and a fresh
// hold after cancellation does.
func TestMachineCancelWake(t *testing.T) {
	k := NewKernel()
	var fired []float64
	pc := 0
	var mm *Machine
	mm = k.SpawnMachine("m", stepFunc(func(m *Machine) {
		fired = append(fired, m.Now())
		switch pc {
		case 0:
			pc = 1
			m.Hold(5) // will be revoked from kernel context at t=1
		case 1:
			m.Finish()
		}
	}))
	k.After(1, func() {
		mm.Hold(10) // replacement timer revokes the t=5 wake: fires at t=11
	})
	k.RunAll()
	k.Drain()
	want := []float64{0, 11}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("steps fired at %v, want %v", fired, want)
	}
}

// TestMachineSpawnValidation covers the nil-body panic.
func TestMachineSpawnValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SpawnMachine(nil) did not panic")
		}
	}()
	NewKernel().SpawnMachine("m", nil)
}

// holdLoop is an alloc-free machine body holding forever; used by the
// benchmarks below.
type holdLoop struct{}

func (holdLoop) Step(m *Machine) { m.Hold(1) }

// BenchmarkKernelStateMachineHoldLoop is the kernel floor: one actor
// holding forever, measured per event.
func BenchmarkKernelStateMachineHoldLoop(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	k.SpawnMachine("m", holdLoop{})
	b.ResetTimer()
	k.Run(float64(b.N))
	b.StopTimer()
	k.Drain()
}

// resourceLoop cycles acquire → hold → release → hold on one resource.
type resourceLoop struct {
	r  *Resource
	pc int
}

func (l *resourceLoop) Step(m *Machine) {
	for {
		switch l.pc {
		case 0:
			l.pc = 1
			if !l.r.AcquireCall(m) {
				return
			}
		case 1:
			l.pc = 2
			m.Hold(1)
			return
		case 2:
			l.r.Release()
			l.pc = 0
			m.Hold(1)
			return
		}
	}
}

// BenchmarkKernelStateMachineResourceContention is the simulation's
// dominant pattern: 10 actors contending FCFS for a capacity-1 facility
// (the wireless channel), measured per event.
func BenchmarkKernelStateMachineResourceContention(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	r := NewResource(k, "chan", 1)
	for i := 0; i < 10; i++ {
		k.SpawnMachine("m", &resourceLoop{r: r})
	}
	b.ResetTimer()
	k.Run(float64(b.N))
	b.StopTimer()
	k.Drain()
}

// BenchmarkKernelStateMachineManyMachines interleaves many short-lived
// actors — the spawn/finish path plus same-time FIFO ordering pressure.
func BenchmarkKernelStateMachineManyMachines(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for j := 0; j < 64; j++ {
			h := 0
			k.SpawnMachineAt(float64(j%7), "m", stepFunc(func(m *Machine) {
				if h++; h > 16 {
					m.Finish()
					return
				}
				m.Hold(1)
			}))
		}
		k.RunAll()
	}
}
