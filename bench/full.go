package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// summary is one end-to-end metric over the runs of an invocation.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Runs   []float64 `json:"runs"`
}

// workloadResult is one workload's entry in a results file.
type workloadResult struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	// PerLayer holds the figures of the workload's own traced run
	// (workloadSpec.runMetrics), and no others.
	PerLayer map[string]metric `json:"per_layer"`
	// RunSpread is harness.run_spread: max ÷ min of the runs, per
	// end-to-end metric.
	RunSpread map[string]float64 `json:"run_spread"`
	Unstable  bool               `json:"unstable"`
}

// results is the file a full invocation writes and -compare reads.
type results struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	CPUs      int    `json:"cpus"`
	Seed      uint64 `json:"seed"`
	Seconds   int    `json:"seconds"`
	// Layers holds the layer drivers' figures, measured once: they do not
	// depend on the workload.
	Layers    map[string]metric `json:"layers"`
	Workloads []workloadResult  `json:"workloads"`
}

// endToEndRuns is how often a full invocation runs each workload end to
// end. The median, min, max and run_spread of a results file are over this
// many runs, so files are comparable only at one value: it is not a flag.
const endToEndRuns = 3

// maxRunSpread is the largest max ÷ min of wall_s across an invocation's
// runs before the workload is called unstable: beyond it the numbers
// measure the scheduler, not mcsim or mccached.
const maxRunSpread = 1.10

// runAll runs the layer drivers once and every workload — endToEndRuns
// end-to-end runs and one traced run each — prints every metric, writes the
// results file, and returns a non-zero exit code if any operation failed,
// any workload was unstable or any prediction was violated.
func (r *runner) runAll(ctx context.Context, seed uint64, seconds int, out string) (int, error) {
	budget := time.Duration(seconds) * time.Second
	file := results{
		Date: time.Now().UTC().Format(time.RFC3339), GoVersion: runtime.Version(),
		CPUs: runtime.NumCPU(), Seed: seed, Seconds: seconds,
	}
	drivers, err := r.layers(seed)
	if err != nil {
		return 1, err
	}
	file.Layers = drivers.Metrics
	fmt.Println("layers: the per-layer drivers, the same for every workload")
	drivers.printMetrics(os.Stdout, driverMetrics)

	code := 0
	for _, w := range workloads {
		wr := workloadResult{Name: w.name, EndToEnd: map[string]summary{}, RunSpread: map[string]float64{}}
		values := map[string][]float64{}
		for i := 0; i < endToEndRuns; i++ {
			o, err := r.endToEnd(ctx, w, seed, budget)
			if err != nil {
				return 1, err
			}
			wr.Attempted += o.Attempted
			wr.Failed += o.Failed
			for _, name := range endToEndMetrics {
				values[name] = append(values[name], o.Metrics[name].Value)
			}
		}
		traced, err := r.traced(ctx, w, seed, budget, drivers)
		if err != nil {
			return 1, err
		}
		wr.Attempted += traced.Attempted
		wr.Failed += traced.Failed
		wr.PerLayer = traced.Metrics

		fmt.Printf("%s: attempted=%d failed=%d failed_share=%g\n", w.name, wr.Attempted, wr.Failed, ratio(float64(wr.Failed), float64(wr.Attempted)))
		for _, name := range endToEndMetrics {
			lo, hi := minMax(values[name])
			s := summary{Unit: unitOf(name), Median: median(values[name]), Min: lo, Max: hi, Runs: values[name]}
			wr.EndToEnd[name] = s
			wr.RunSpread[name] = ratio(hi, lo)
			fmt.Printf("  %-40s %14.6g %-6s min=%.6g max=%.6g runs=%d harness.run_spread=%.3f\n", name, s.Median, s.Unit, lo, hi, endToEndRuns, wr.RunSpread[name])
		}
		if wr.RunSpread["wall_s"] > maxRunSpread {
			wr.Unstable = true
			fmt.Printf("  unstable: run spread beyond %.2f\n", maxRunSpread)
		}
		traced.printMetrics(os.Stdout, w.runMetrics())
		if wr.Failed > 0 || wr.Unstable {
			code = 1
		}
		file.Workloads = append(file.Workloads, wr)
	}
	fmt.Println("storage.* and live_durable latencies are this sandbox's page-cache fsync, not a device's")
	if !checkPredictions(os.Stdout, &file) {
		code = 1
	}

	raw, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return 1, err
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		return 1, err
	}
	fmt.Println("results:", out)
	return code, nil
}

// checkPredictions prints whether the interactions README.md predicts hold
// in this invocation's numbers, and reports whether all do. A figure the
// invocation did not measure violates its prediction.
func checkPredictions(out io.Writer, file *results) bool {
	all := true
	layer := func(workload, name string) float64 {
		m, ok := file.Layers[name]
		if !ok {
			for _, w := range file.Workloads {
				if w.Name == workload {
					m, ok = w.PerLayer[name]
				}
			}
		}
		if !ok {
			all = false
			fmt.Fprintf(out, "prediction VIOLATED: %s was not measured on %s\n", name, workload)
			return math.NaN() // every comparison with it is false
		}
		return m.Value
	}
	report := func(ok bool, format string, args ...any) {
		verdict := "holds"
		if !ok {
			verdict, all = "VIOLATED", false
		}
		fmt.Fprintf(out, "prediction %s: %s\n", verdict, fmt.Sprintf(format, args...))
	}
	storeUS, readUS := layer("live_mem", "serve.store_read_ns")/1e3, layer("live_mem", "read_p50_us")
	report(storeUS < 0.05*readUS, "serve.store_read_ns (%.2f us) is under 5%% of read_p50_us (%.1f us) on live_mem", storeUS, readUS)
	est := layer("live_durable", "storage.puts_per_write") * layer("live_durable", "storage.put_group_us_p50")
	writeUS := layer("live_durable", "write_p50_us")
	report(est > 0.8*writeUS && est < 1.2*writeUS, "puts_per_write x put_group_us_p50 (%.0f us) is within 20%% of write_p50_us (%.0f us) on live_durable", est, writeUS)
	report(layer("sim_paper", "network.retries") == 0 && layer("sim_paper", "network.frames_lost") == 0 &&
		layer("sim_lossy", "network.retries") > 0 && layer("sim_lossy", "network.frames_lost") > 0,
		"network.retries and network.frames_lost are 0 on sim_paper and above 0 on sim_lossy")
	report(layer("sim_paper", "federation.backbone_msgs") == 0 && layer("sim_fleet", "federation.backbone_msgs") > 0,
		"federation.backbone_msgs is 0 on sim_paper and above 0 on sim_fleet")
	return all
}
