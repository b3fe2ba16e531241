package sim

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestMM1AgainstTheory validates the kernel's machine/resource semantics
// against closed-form queueing theory: an M/M/1 queue with arrival rate λ
// and service rate μ has expected waiting time (in queue)
// Wq = λ/(μ(μ−λ)) and server utilization ρ = λ/μ. If the event ordering,
// FCFS hand-off, or clock arithmetic were wrong, these would not match.
func TestMM1AgainstTheory(t *testing.T) {
	const (
		lambda = 0.8
		mu     = 1.0
		n      = 200000
	)
	k := NewKernel()
	res := NewResource(k, "server", 1)
	arrivals := rng.New(42)
	services := rng.New(43)

	var totalWait float64
	var completed int

	// job queues for the server, records its wait, and is served.
	job := func(service float64) *script {
		start := k.Now()
		return seq(
			acquire(res),
			do(func() { totalWait += k.Now() - start }),
			hold(service),
			release(res),
			do(func() { completed++ }),
		)
	}
	generated := 0
	k.SpawnMachine("generator", stepFunc(func(m *Machine) {
		if generated > 0 {
			k.SpawnMachine("job", job(services.Exp(mu)))
		}
		if generated == n {
			m.Finish()
			return
		}
		generated++
		m.Hold(arrivals.Exp(lambda))
	}))
	k.RunAll()

	if completed != n {
		t.Fatalf("completed %d of %d jobs", completed, n)
	}
	rho := lambda / mu
	wantWq := lambda / (mu * (mu - lambda))
	gotWq := totalWait / float64(n)
	if math.Abs(gotWq-wantWq)/wantWq > 0.05 {
		t.Errorf("mean queue wait %.3f, theory %.3f (±5%%)", gotWq, wantWq)
	}
	if gotRho := res.Utilization(); math.Abs(gotRho-rho)/rho > 0.02 {
		t.Errorf("utilization %.3f, theory %.3f (±2%%)", gotRho, rho)
	}
}

// TestMD1AgainstTheory does the same for deterministic service (M/D/1):
// Wq = ρ/(2μ(1−ρ)) — half the M/M/1 wait.
func TestMD1AgainstTheory(t *testing.T) {
	const (
		lambda = 0.8
		mu     = 1.0
		n      = 200000
	)
	k := NewKernel()
	res := NewResource(k, "server", 1)
	arrivals := rng.New(7)

	var totalWait float64
	job := func() *script {
		start := k.Now()
		return seq(
			acquire(res),
			do(func() { totalWait += k.Now() - start }),
			hold(1/mu),
			release(res),
		)
	}
	generated := 0
	k.SpawnMachine("generator", stepFunc(func(m *Machine) {
		if generated > 0 {
			k.SpawnMachine("job", job())
		}
		if generated == n {
			m.Finish()
			return
		}
		generated++
		m.Hold(arrivals.Exp(lambda))
	}))
	k.RunAll()

	rho := lambda / mu
	wantWq := rho / (2 * mu * (1 - rho))
	gotWq := totalWait / float64(n)
	if math.Abs(gotWq-wantWq)/wantWq > 0.05 {
		t.Errorf("M/D/1 mean queue wait %.3f, theory %.3f (±5%%)", gotWq, wantWq)
	}
}
