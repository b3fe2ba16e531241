package experiment

import (
	"fmt"
	"runtime"
	"sync"
)

// Runner executes batches of independent simulation runs on a worker pool.
// Each run owns its kernel, RNG streams, and metric sinks (see Run), so
// concurrent execution cannot perturb results: RunBatch returns exactly the
// Result slice a serial loop over the configs would produce, in submission
// order, for any worker count. The paper's evaluation is ~200 such runs;
// the sweep is embarrassingly parallel and scales with cores.
type Runner struct {
	// Workers is the number of concurrent simulations; values < 1 select
	// runtime.GOMAXPROCS(0).
	Workers int
}

// effectiveWorkers resolves the worker count. An explicit request is capped
// at GOMAXPROCS: simulation runs are pure CPU with no blocking I/O, so
// running more of them than there are schedulable CPUs only adds scheduler
// churn and cache pressure — on a single-CPU host, -parallel 8 measured
// ~20% slower than serial for identical output (docs/BENCH.md). Results do
// not depend on the worker count either way.
func (r Runner) effectiveWorkers() int {
	maxProcs := runtime.GOMAXPROCS(0)
	if r.Workers < 1 || r.Workers > maxProcs {
		return maxProcs
	}
	return r.Workers
}

// RunBatch executes every config through Run and returns the results in
// submission order. Every config is validated before the first simulation
// starts; an invalid one panics, naming its index and label (sweeps that
// want the error as a value use Report.Err). A panic inside any run is
// re-raised on the caller's goroutine, annotated with the config that
// caused it; remaining in-flight runs finish first.
func (r Runner) RunBatch(cfgs []Config) []Result {
	if err := validateAll(cfgs); err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
	results := make([]Result, len(cfgs))
	workers := r.effectiveWorkers()
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	// A Tracer or an obs.Registry is shared mutable state across runs:
	// concurrent execution would interleave (and race on) its records, so
	// instrumented batches run serial and stay byte-identical to the
	// sequential order. A multi-cell run already spreads its cells over
	// the same pool, so a batch holding one takes its configs one at a
	// time instead of multiplying the two widths (and the live fleets).
	for _, cfg := range cfgs {
		if cfg.Tracer != nil || cfg.Obs != nil || cfg.Cells > 1 {
			workers = 1
			break
		}
	}
	r2 := Runner{Workers: workers}
	r2.forEach(len(cfgs), func(i int) {
		results[i] = Run(cfgs[i])
	}, func(i int) string {
		return fmt.Sprintf("run %d (%s)", i, cfgs[i])
	})
	return results
}

// validateAll checks every config of a sweep and returns the first
// failure, named by submission index and label.
func validateAll(cfgs []Config) error {
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("run %d (%s): %w", i, cfg, err)
		}
	}
	return nil
}

// ForEach runs fn(0) .. fn(n-1) on the worker pool, returning once all
// calls complete. It is the generic scatter primitive under RunBatch and
// Run's per-cell kernels: fn must write its result
// into a caller-owned slot so outputs can be merged in index order
// regardless of execution order. A panic inside any fn is re-raised on the
// caller's goroutine (lowest index first); remaining tasks finish first.
func (r Runner) ForEach(n int, fn func(int)) {
	r.forEach(n, fn, func(i int) string { return fmt.Sprintf("task %d", i) })
}

// forEach is ForEach with a caller-supplied panic annotation.
func (r Runner) forEach(n int, fn func(int), describe func(int) string) {
	workers := r.effectiveWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						panic(fmt.Sprintf("experiment: %s panicked: %v", describe(i), rec))
					}
				}()
				fn(i)
			}()
		}
		return
	}

	type failure struct {
		idx int
		err interface{}
	}
	jobs := make(chan int)
	failures := make(chan failure, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				func() {
					defer func() {
						if rec := recover(); rec != nil {
							failures <- failure{idx: i, err: rec}
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	close(failures)

	var first *failure
	for f := range failures {
		f := f
		if first == nil || f.idx < first.idx {
			first = &f
		}
	}
	if first != nil {
		panic(fmt.Sprintf("experiment: %s panicked: %v", describe(first.idx), first.err))
	}
}

// defaultWorkers is the pool size the Exp* sweeps and Replicate use; it is
// what `mcsim -parallel N` sets. Zero selects runtime.GOMAXPROCS(0).
var defaultWorkers int

// SetDefaultWorkers sets the worker count used by the experiment sweeps
// (Exp1..Exp6, Replicate). n < 1 restores the default, one worker per
// available CPU. It returns the previous setting so tests can restore it.
func SetDefaultWorkers(n int) int {
	prev := defaultWorkers
	if n < 1 {
		n = 0
	}
	defaultWorkers = n
	return prev
}

// batch accumulates configs during an experiment's enqueue pass and the
// per-result continuations that build its tables. collect runs the whole
// batch on the default worker pool and then applies the continuations in
// submission order, so the emitted tables are byte-identical to what the
// old serial loops produced no matter how many workers raced underneath.
type batch struct {
	cfgs []Config
	then []func(Result)
}

// add enqueues one run; then (optional) consumes its Result during collect.
func (b *batch) add(cfg Config, then func(Result)) {
	b.cfgs = append(b.cfgs, cfg)
	b.then = append(b.then, then)
}

// collect validates the whole batch — on a failure it sets rep.Err and runs
// nothing — then executes it, appends every Result to rep in submission
// order, and invokes the continuations.
func (b *batch) collect(rep *Report) {
	if rep.Err = validateAll(b.cfgs); rep.Err != nil {
		return
	}
	results := Runner{Workers: defaultWorkers}.RunBatch(b.cfgs)
	for i, res := range results {
		rep.Results = append(rep.Results, res)
		if b.then[i] != nil {
			b.then[i](res)
		}
	}
}
