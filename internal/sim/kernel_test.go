package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
}

func TestHoldAdvancesClock(t *testing.T) {
	k := NewKernel()
	var at float64
	k.SpawnMachine("p", seq(hold(5), do(func() { at = k.Now() })))
	k.RunAll()
	if at != 5 {
		t.Fatalf("time after Hold(5) = %v, want 5", at)
	}
	if k.Now() != 5 {
		t.Fatalf("kernel Now() = %v, want 5", k.Now())
	}
}

func TestNegativeHoldIsZero(t *testing.T) {
	k := NewKernel()
	var at float64
	k.SpawnMachine("p", seq(hold(-3), do(func() { at = k.Now() })))
	k.RunAll()
	if at != 0 {
		t.Fatalf("time after Hold(-3) = %v, want 0", at)
	}
}

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	note := func(i int) ops { return do(func() { order = append(order, i) }) }
	k.SpawnMachine("a", seq(hold(3), note(3)))
	k.SpawnMachine("b", seq(hold(1), note(1), hold(1), note(2)))
	k.RunAll()
	want := []int{1, 2, 3}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	// Events scheduled for the same instant must fire in schedule order.
	k := NewKernel()
	var order []string
	for _, name := range []string{"a", "b", "c", "d"} {
		k.SpawnMachine(name, seq(hold(10), do(func() { order = append(order, name) })))
	}
	k.RunAll()
	want := []string{"a", "b", "c", "d"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	k := NewKernel()
	reached := false
	k.SpawnMachine("p", seq(hold(100), do(func() { reached = true })))
	end := k.Run(50)
	if end != 50 {
		t.Fatalf("Run(50) returned %v", end)
	}
	if reached {
		t.Fatal("event beyond horizon was dispatched")
	}
	k.Drain()
	if k.LiveMachines() != 0 {
		t.Fatalf("LiveMachines after Drain = %d", k.LiveMachines())
	}
}

func TestRunResume(t *testing.T) {
	// Run can be called again to continue past a checkpoint.
	k := NewKernel()
	var times []float64
	tick := cat(hold(10), do(func() { times = append(times, k.Now()) }))
	k.SpawnMachine("p", seq(tick, tick, tick))
	k.Run(15)
	if len(times) != 1 {
		t.Fatalf("after Run(15): %v", times)
	}
	k.Run(100)
	if !reflect.DeepEqual(times, []float64{10, 20, 30}) {
		t.Fatalf("times = %v", times)
	}
}

func TestAfterCallback(t *testing.T) {
	k := NewKernel()
	var fired []float64
	k.After(5, func() { fired = append(fired, k.Now()) })
	k.After(2, func() { fired = append(fired, k.Now()) })
	k.RunAll()
	if !reflect.DeepEqual(fired, []float64{2, 5}) {
		t.Fatalf("fired = %v", fired)
	}
}

func TestAfterClampsToNow(t *testing.T) {
	k := NewKernel()
	var at float64 = -1
	k.After(10, func() {
		k.After(-7, func() { at = k.Now() }) // a delay into the past
	})
	k.RunAll()
	if at != 10 {
		t.Fatalf("After(-7) fired at %v, want 10", at)
	}
}

func TestSpawnAtDelayedStart(t *testing.T) {
	k := NewKernel()
	var started float64 = -1
	k.SpawnMachineAt(42, "late", seq(do(func() { started = k.Now() })))
	k.RunAll()
	if started != 42 {
		t.Fatalf("late machine started at %v, want 42", started)
	}
}

func TestHoldUntil(t *testing.T) {
	k := NewKernel()
	var a, b float64
	k.SpawnMachine("p", seq(
		holdUntil(7),
		do(func() { a = k.Now() }),
		holdUntil(3), // past: no-op
		do(func() { b = k.Now() }),
	))
	k.RunAll()
	if a != 7 || b != 7 {
		t.Fatalf("a=%v b=%v, want 7,7", a, b)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		k.schedule(5, nil, func() {})
	})
	k.RunAll()
}

func TestDrainKillsSuspendedProcs(t *testing.T) {
	// A machine suspended in a hold is retired by Drain: it never steps
	// again, even if the kernel is run further, and reports Done.
	k := NewKernel()
	woke := false
	m := k.SpawnMachine("p", seq(hold(1e9), do(func() { woke = true })))
	k.Run(10)
	k.Drain()
	if k.LiveMachines() != 0 {
		t.Fatalf("LiveMachines = %d after Drain", k.LiveMachines())
	}
	if !m.done && !m.killed {
		t.Fatal("drained machine does not report Done")
	}
	k.RunAll()
	if woke {
		t.Fatal("killed machine stepped after Drain")
	}
}

func TestDrainUnstartedProc(t *testing.T) {
	k := NewKernel()
	ran := false
	k.SpawnMachineAt(100, "never", seq(do(func() { ran = true })))
	k.Run(10)
	k.Drain()
	k.RunAll()
	if ran {
		t.Fatal("unstarted machine body ran")
	}
	if k.LiveMachines() != 0 {
		t.Fatalf("LiveMachines = %d", k.LiveMachines())
	}
}

func TestNestedSpawn(t *testing.T) {
	k := NewKernel()
	var childTime float64 = -1
	k.SpawnMachine("parent", seq(
		hold(5),
		do(func() {
			k.SpawnMachine("child", seq(hold(2), do(func() { childTime = k.Now() })))
		}),
		hold(10),
	))
	k.RunAll()
	if childTime != 7 {
		t.Fatalf("child finished at %v, want 7", childTime)
	}
}

func TestManyProcsInterleave(t *testing.T) {
	k := NewKernel()
	const n = 100
	count := 0
	for i := 0; i < n; i++ {
		k.SpawnMachine("p", seq(hold(float64(i%7)), do(func() { count++ })))
	}
	k.RunAll()
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
}

func TestStepsCounter(t *testing.T) {
	k := NewKernel()
	k.SpawnMachine("p", seq(hold(1), hold(1)))
	k.RunAll()
	if k.Steps() != 3 { // spawn event + 2 holds
		t.Fatalf("Steps() = %d, want 3", k.Steps())
	}
}

func TestRunAllInfinity(t *testing.T) {
	k := NewKernel()
	k.SpawnMachine("p", seq(hold(math.MaxFloat64/2)))
	end := k.RunAll()
	if end != math.MaxFloat64/2 {
		t.Fatalf("end = %v", end)
	}
}

// Property: clock is monotone non-decreasing across arbitrary hold patterns.
func TestQuickClockMonotone(t *testing.T) {
	f := func(holds []uint16) bool {
		k := NewKernel()
		ok := true
		last := -1.0
		for i, h := range holds {
			d := float64(h % 100)
			k.SpawnMachineAt(float64(i%5), "p", seq(hold(d), do(func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})))
		}
		k.RunAll()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMixedSameTimeOrdering(t *testing.T) {
	// Machine steps and After callbacks scheduled for the same instant
	// fire in schedule order, regardless of kind.
	k := NewKernel()
	var order []string
	k.After(5, func() { order = append(order, "after") })
	k.SpawnMachineAt(5, "machine", seq(do(func() { order = append(order, "machine") })))
	k.After(5, func() { order = append(order, "after2") })
	k.RunAll()
	want := []string{"after", "machine", "after2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestCallbackSchedulesProc(t *testing.T) {
	// A kernel-context callback can spawn machines and schedule further
	// callbacks.
	k := NewKernel()
	var at float64 = -1
	k.After(2, func() {
		k.SpawnMachine("child", seq(hold(3), do(func() { at = k.Now() })))
	})
	k.RunAll()
	if at != 5 {
		t.Fatalf("child finished at %v, want 5", at)
	}
}

func TestManyProcsStress(t *testing.T) {
	// A few thousand interleaving machines with resources: exercises the
	// FCFS hand-off at scale.
	k := NewKernel()
	r := NewResource(k, "shared", 3)
	const n = 2000
	done := 0
	for i := 0; i < n; i++ {
		k.SpawnMachineAt(float64(i%17), "p", seq(use(r, float64(i%5)+0.1), do(func() { done++ })))
	}
	k.RunAll()
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	if k.LiveMachines() != 0 {
		t.Fatalf("LiveMachines = %d", k.LiveMachines())
	}
}

func TestDrainRetainsHeapCapacity(t *testing.T) {
	// The event free-list: Drain empties the future event list but keeps
	// the backing array for kernels reused across Run calls.
	k := NewKernel()
	for i := 0; i < 100; i++ {
		k.After(float64(i)+1e6, func() {})
	}
	before := cap(k.events)
	k.Drain()
	if len(k.events) != 0 {
		t.Fatalf("events after Drain = %d, want 0", len(k.events))
	}
	if cap(k.events) != before {
		t.Fatalf("heap capacity %d after Drain, want %d retained", cap(k.events), before)
	}
}

func TestHeapOrderRandomized(t *testing.T) {
	// The inlined binary heap must dispatch in exact (at, seq) order for
	// adversarial schedules, same as container/heap did.
	f := func(times []uint16) bool {
		k := NewKernel()
		var got []float64
		for _, raw := range times {
			at := float64(raw % 256)
			k.After(at, func() { got = append(got, at) })
		}
		k.RunAll()
		if len(got) != len(times) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNoGoroutineLeakAfterDrain(t *testing.T) {
	// The kernel is single-threaded: spawning, running and draining any
	// number of machines starts no goroutine.
	baseline := runtime.NumGoroutine()
	for trial := 0; trial < 10; trial++ {
		k := NewKernel()
		r := NewResource(k, "chan", 1)
		for i := 0; i < 100; i++ {
			k.SpawnMachineAt(float64(i%13), "p", forever(use(r, 1), hold(0.5)))
		}
		k.Run(200)
		if n := runtime.NumGoroutine(); n > baseline {
			t.Fatalf("trial %d: %d goroutines mid-run, baseline %d", trial, n, baseline)
		}
		k.Drain()
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after Drain, baseline %d", n, baseline)
	}
}
