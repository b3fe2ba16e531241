package sim

import "testing"

// Kernel micro-benchmarks. Each iteration dispatches a fixed number of
// events so ns/op and allocs/op read directly as per-event costs scaled by
// the constant below. Run with -benchmem to see allocs/event:
//
//	go test -bench=Kernel -benchmem ./internal/sim
const benchEvents = 1024

// BenchmarkKernelTimerWheel measures the pure future-event-list cost: one
// callback event scheduled and dispatched per loop turn, no machine
// steps. This isolates heap push/pop and event storage.
func BenchmarkKernelTimerWheel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < benchEvents {
				k.After(1, tick)
			}
		}
		k.After(1, tick)
		k.RunAll()
	}
}

// BenchmarkKernelTimerFanout schedules a full wave of timers up front and
// drains them: worst-case heap depth, still no machine steps.
func BenchmarkKernelTimerFanout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		n := 0
		for j := 0; j < benchEvents; j++ {
			k.After(float64(j%97), func() { n++ })
		}
		k.RunAll()
		if n != benchEvents {
			b.Fatalf("n = %d", n)
		}
	}
}

// BenchmarkKernelResourceFCFS is a finite contention episode, set-up
// included: 32 staggered machines each taking a capacity-1 facility 8
// times, with queueing statistics accruing.
func BenchmarkKernelResourceFCFS(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		r := NewResource(k, "chan", 1)
		for j := 0; j < 32; j++ {
			round := cat(use(r, 0.5), hold(0.1))
			k.SpawnMachineAt(float64(j), "p", seq(round, round, round, round, round, round, round, round))
		}
		k.RunAll()
	}
}
