// Command mcbench is the repository's benchmark: five named workloads —
// three simulator scenarios run through experiment.New + Scenario.Run and
// two live request mixes replayed against the built mccached binary — with
// end-to-end metrics measured untraced, and per-layer metrics from a traced
// run plus direct drivers over each module's public functions. Everything
// is measured from outside: this package changes no code under internal/
// or cmd/. BENCHMARK.json at the repository root names the metrics and
// their regression bounds; README.md in this directory explains them.
//
// Run it through bench/run.sh, which builds this package and mccached:
//
//	bash bench/run.sh --workload sim_paper --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                       # layer drivers once; all five, 3 runs each + traced run
//	bash bench/run.sh -compare A.json B.json
//
// The first form prints one JSON object as the last line of standard
// output; the second prints a table and writes a results file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is main minus os.Exit, so deferred cleanup always happens.
func run(args []string) int {
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	var (
		mccached = fs.String("mccached", "", "path of the built mccached binary")
		work     = fs.String("work", ".bench_build", "scratch directory (temp stores, trace and results files)")
		name     = fs.String("workload", "", "run this one workload and print one JSON line; empty runs all five")
		seed     = fs.Uint64("seed", 1, "seed of every generated input")
		seconds  = fs.Int("seconds", 15, "how long one run measures")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run and the layer drivers")
		out      = fs.String("out", "", "results file when running all five (default <work>/results.json)")
		compare  = fs.Bool("compare", false, "compare two results files: -compare A.json B.json")
		unit     = fs.Bool("unit", false, "internal: run one simulator unit in this process and print its result")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two results files"))
		}
		code, err := compareFiles(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		return code
	}
	if *unit {
		w := findWorkload(*name)
		if w == nil || w.live() {
			return fail(fmt.Errorf("-unit wants a simulator workload, got %q", *name))
		}
		res, err := runSimUnit(w, *seed, false)
		if err != nil {
			return fail(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			return fail(err)
		}
		return 0
	}

	// SIGINT/SIGTERM cancel the context: children are signalled and
	// reaped, temp directories removed by the deferred cleanups.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if *mccached == "" {
		return fail(fmt.Errorf("-mccached is required (bench/run.sh builds it and passes it)"))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return fail(err)
	}
	r := &runner{env: env{mccached: *mccached, work: *work}, self: self}

	if *name == "" {
		if *out == "" {
			*out = filepath.Join(*work, "results.json")
		}
		code, err := r.runAll(ctx, *seed, *seconds, *out)
		if err != nil {
			return fail(err)
		}
		return code
	}
	w := findWorkload(*name)
	if w == nil {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	budget := time.Duration(*seconds) * time.Second
	var res *runOutput
	if *trace != 0 {
		res, err = r.perLayer(ctx, w, *seed, budget)
	} else {
		res, err = r.endToEnd(ctx, w, *seed, budget)
	}
	if err != nil {
		return fail(err)
	}
	res.print(os.Stderr, w.name)
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return fail(err)
	}
	return 0
}

// runner holds what a run needs besides its workload.
type runner struct {
	env
	// self is this executable, re-run with -unit so that every simulator
	// unit is a fresh process: its peak RSS is its own and GC state does
	// not leak between units. Empty runs units in-process (tests).
	self string
	// toy selects toy sizes; only the in-process runner of the tests sets it.
	toy bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is the result of one run of one workload: the JSON object the
// benchmark contract asks for.
type runOutput struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples map[string]int // sample count behind each timing
}

func newRunOutput() *runOutput {
	return &runOutput{Metrics: make(map[string]metric), samples: make(map[string]int)}
}

// set records a metric and the number of samples behind it.
func (o *runOutput) set(name string, v float64, samples int) {
	o.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	o.samples[name] = samples
}

// print renders the run as a table, in reporting order.
func (o *runOutput) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "%s: attempted=%d failed=%d correct=%v\n", workload, o.Attempted, o.Failed, o.Correct)
	o.printMetrics(w, endToEndMetrics)
	o.printMetrics(w, perLayerMetrics)
}

// printMetrics renders those of the named metrics the run holds, each with
// its unit and the sample count behind it.
func (o *runOutput) printMetrics(w io.Writer, names []string) {
	for _, name := range names {
		if m, ok := o.Metrics[name]; ok {
			fmt.Fprintf(w, "  %-40s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, o.samples[name])
		}
	}
}

// perLayer is the one-line form of --trace 1: the layer drivers' figures
// and the workload's own, under every per_layer name of BENCHMARK.json as
// the driver's contract wants — here, and only here, a figure that does not
// apply to the workload reads 0 (sample count 0).
func (r *runner) perLayer(ctx context.Context, w *workloadSpec, seed uint64, budget time.Duration) (*runOutput, error) {
	drivers, err := r.layers(seed)
	if err != nil {
		return nil, err
	}
	o, err := r.traced(ctx, w, seed, budget, drivers)
	if err != nil {
		return nil, err
	}
	for _, name := range driverMetrics {
		o.set(name, drivers.Metrics[name].Value, drivers.samples[name])
	}
	for _, name := range perLayerMetrics {
		if _, ok := o.Metrics[name]; !ok {
			o.set(name, 0, 0)
		}
	}
	return o, nil
}

// repeatFor runs unit until the budget is spent, and at least minUnits
// times. It stops early rather than start a unit that would overrun the
// budget by more than half its expected length.
func repeatFor(ctx context.Context, budget time.Duration, minUnits int, unit func() error) error {
	start := time.Now()
	var last time.Duration
	for n := 0; ; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if n >= minUnits && time.Since(start)+last/2 > budget {
			return nil
		}
		t0 := time.Now()
		if err := unit(); err != nil {
			return err
		}
		last = time.Since(t0)
	}
}

// simUnit runs one simulator unit, in a fresh child process when r.self is
// set.
func (r *runner) simUnit(ctx context.Context, w *workloadSpec, seed uint64) (simResult, error) {
	var res simResult
	if r.self == "" {
		return runSimUnit(w, seed, r.toy)
	}
	cmd := exec.CommandContext(ctx, r.self, "-unit", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s unit: %w", w.name, err)
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		return res, fmt.Errorf("%s unit: %w", w.name, err)
	}
	return res, nil
}

// peakRSSMB returns the peak resident set size (VmHWM) of process pid in
// MB. It is read from /proc and not from the child's ru_maxrss: the kernel
// starts a child's ru_maxrss at its parent's resident size at the time of
// the fork, so a large harness would hide a small child.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	_, rest, ok := strings.Cut(string(raw), "VmHWM:")
	if !ok {
		return 0, fmt.Errorf("pid %d: no VmHWM in /proc status", pid)
	}
	var kb float64
	if _, err := fmt.Sscanf(rest, "%f kB", &kb); err != nil {
		return 0, fmt.Errorf("pid %d: VmHWM: %w", pid, err)
	}
	return kb / 1024, nil
}

// fingerprintOK checks a unit's result fingerprint: against the pinned
// value at seed 1 and full size, otherwise against the run's first unit.
func (r *runner) fingerprintOK(w *workloadSpec, seed uint64, got string, first *string) bool {
	if *first == "" {
		*first = got
	}
	if seed == 1 && !r.toy && w.pin != "" && got != w.pin {
		fmt.Fprintf(os.Stderr, "bench: %s: fingerprint %s differs from the pinned %s\n", w.name, got, w.pin)
		return false
	}
	if got != *first {
		fmt.Fprintf(os.Stderr, "bench: %s: fingerprint %s differs from the run's first %s\n", w.name, got, *first)
		return false
	}
	return true
}

// endToEnd measures one workload untraced for the budget: units of fixed
// work repeated. wall_s is that of the fastest unit — on a shared box
// interference only ever slows a unit down, so the fastest one is the best
// estimate of what the program costs (measured in a noisy hour: ten runs'
// medians spread 8 %, their minima 5 %). Memory and set-up time, which
// interference moves either way or not at all, are medians over the units.
func (r *runner) endToEnd(ctx context.Context, w *workloadSpec, seed uint64, budget time.Duration) (*runOutput, error) {
	o := newRunOutput()
	var wall, rss, setup []float64
	var err error
	if w.live() {
		err = repeatFor(ctx, budget, 1, func() error {
			res, err := r.runLiveUnit(ctx, w, seed, r.toy, false, nil)
			if err != nil {
				return err
			}
			o.Attempted += res.attempted
			o.Failed += res.failed
			wall = append(wall, res.wallS)
			rss = append(rss, res.rssMB)
			setup = append(setup, res.setupS)
			return nil
		})
	} else {
		// Two units at least: on an unpinned seed the fingerprint check
		// compares the units of the run with each other.
		var first string
		err = repeatFor(ctx, budget, 2, func() error {
			res, err := r.simUnit(ctx, w, seed)
			if err != nil {
				return err
			}
			o.Attempted++
			if !r.fingerprintOK(w, seed, res.Fingerprint, &first) {
				o.Failed++
			}
			wall = append(wall, res.WallS)
			rss = append(rss, res.RSSPeakMB)
			setup = append(setup, res.SetupS)
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	o.Correct = o.Failed == 0
	fastest, _ := minMax(wall)
	o.set("wall_s", fastest, len(wall))
	o.set("rss_peak_mb", median(rss), len(rss))
	o.set("setup_s", median(setup), len(setup))
	return o, nil
}
