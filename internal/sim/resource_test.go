package sim

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestResourceExclusive(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "disk", 1)
	var done []float64
	for i := 0; i < 3; i++ {
		k.SpawnMachine("p", seq(use(r, 10), do(func() { done = append(done, k.Now()) })))
	}
	k.RunAll()
	want := []float64{10, 20, 30}
	if !reflect.DeepEqual(done, want) {
		t.Fatalf("completion times %v, want %v (serialized service)", done, want)
	}
}

func TestResourceFCFS(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "chan", 1)
	var order []int
	for i := 0; i < 5; i++ {
		k.SpawnMachineAt(float64(i), "p", seq(
			acquire(r),
			do(func() { order = append(order, i) }),
			hold(100),
			release(r),
		))
	}
	k.RunAll()
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("service order %v, want FIFO", order)
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "pool", 2)
	var done []float64
	for i := 0; i < 4; i++ {
		k.SpawnMachine("p", seq(use(r, 10), do(func() { done = append(done, k.Now()) })))
	}
	k.RunAll()
	// Two run in parallel: pairs complete at 10 and 20.
	want := []float64{10, 10, 20, 20}
	if !reflect.DeepEqual(done, want) {
		t.Fatalf("completion times %v, want %v", done, want)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "x", 1)
	panicked := false
	k.SpawnMachine("p", seq(do(func() {
		defer func() { panicked = recover() != nil }()
		r.Release()
	})))
	k.RunAll()
	if !panicked {
		t.Fatal("Release of idle resource did not panic")
	}
}

func TestNewResourceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewResource with capacity 0 did not panic")
		}
	}()
	NewResource(NewKernel(), "bad", 0)
}

func TestUtilization(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "disk", 1)
	k.SpawnMachine("p", seq(use(r, 25), hold(75)))
	k.RunAll()
	if u := r.Utilization(); math.Abs(u-0.25) > 1e-9 {
		t.Fatalf("Utilization = %v, want 0.25", u)
	}
}

func TestMeanWait(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "chan", 1)
	for i := 0; i < 2; i++ {
		k.SpawnMachine("p", seq(use(r, 10)))
	}
	k.RunAll()
	// First waits 0, second waits 10 -> mean 5.
	if w := r.MeanWait(); math.Abs(w-5) > 1e-9 {
		t.Fatalf("MeanWait = %v, want 5", w)
	}
	if r.Acquires() != 2 {
		t.Fatalf("Acquires = %d, want 2", r.Acquires())
	}
}

func TestQueueLenDuringContention(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "chan", 1)
	var maxQ int
	for i := 0; i < 4; i++ {
		k.SpawnMachine("p", seq(use(r, 10)))
	}
	k.After(5, func() {
		if q := r.QueueLen(); q > maxQ {
			maxQ = q
		}
	})
	k.RunAll()
	if maxQ != 3 {
		t.Fatalf("queue length at t=5 was %d, want 3", maxQ)
	}
}

func TestDrainWithQueuedWaiters(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "chan", 1)
	for i := 0; i < 3; i++ {
		k.SpawnMachine("p", seq(use(r, 1e9)))
	}
	k.Run(10)
	k.Drain()
	if k.LiveMachines() != 0 {
		t.Fatalf("LiveMachines = %d after Drain", k.LiveMachines())
	}
}

// Property: with a capacity-1 resource and identical service demands, total
// makespan equals n*d and service strictly serializes, for any d and n.
func TestQuickSerialMakespan(t *testing.T) {
	f := func(nRaw, dRaw uint8) bool {
		n := int(nRaw)%8 + 1
		d := float64(dRaw%50) + 1
		k := NewKernel()
		r := NewResource(k, "x", 1)
		var last float64
		for i := 0; i < n; i++ {
			k.SpawnMachine("p", seq(use(r, d), do(func() { last = k.Now() })))
		}
		k.RunAll()
		return math.Abs(last-float64(n)*d) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
