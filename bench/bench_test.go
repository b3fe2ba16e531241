package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

// benchmarkSpec is BENCHMARK.json as the smoke test reads it.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	var spec benchmarkSpec
	if err := loadJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// toyRunner runs units in this process at toy size, against the
// in-process service instead of the mccached binary.
func toyRunner(t *testing.T) *runner {
	return &runner{env: env{work: t.TempDir()}, toy: true}
}

// checkMetrics asserts that a run emitted exactly the metrics named want,
// each with the unit BENCHMARK.json declares and a finite value.
func checkMetrics(t *testing.T, what string, o *runOutput, want []string, units map[string]string) {
	t.Helper()
	if len(o.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, want %d", what, len(o.Metrics), len(want))
	}
	for _, name := range want {
		got, ok := o.Metrics[name]
		unit, declared := units[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", what, name)
		case !declared:
			t.Errorf("%s: metric %s is not in BENCHMARK.json", what, name)
		case got.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, got.Unit, unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", what, name, got.Value)
		}
	}
}

// checkCorrect asserts that a run attempted something and nothing failed.
func checkCorrect(t *testing.T, what string, o *runOutput) {
	t.Helper()
	if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, o.Correct, o.Attempted, o.Failed)
	}
}

// names returns the metric names of one list of BENCHMARK.json.
func names(list []struct{ Name, Unit string }) []string {
	var out []string
	for _, m := range list {
		out = append(out, m.Name)
	}
	return out
}

// TestSmoke runs every workload and every layer driver at toy size and
// checks the output against BENCHMARK.json — every end-to-end metric on
// every workload, every per-layer metric exactly where it applies — so the
// harness keeps compiling and running against internal/* as those packages
// change.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	grammar := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	units := map[string]string{}
	for _, list := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			if !grammar.MatchString(m.Name) {
				t.Errorf("metric name %q breaks the name grammar", m.Name)
			}
			if _, seen := units[m.Name]; seen {
				t.Errorf("metric name %q is used twice", m.Name)
			}
			units[m.Name] = m.Unit
		}
	}
	if !slices.Equal(endToEndMetrics, names(spec.EndToEnd)) {
		t.Errorf("end_to_end of BENCHMARK.json is not the harness's list %v", endToEndMetrics)
	}
	if !slices.Equal(perLayerMetrics, names(spec.PerLayer)) {
		t.Error("per_layer of BENCHMARK.json is not the harness's list (metrics.go), in its order")
	}

	r := toyRunner(t)
	ctx := context.Background()
	drivers, err := r.layers(7)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, "layers", drivers, driverMetrics, units)
	if _, err := os.Stat(filepath.Join(r.work, "trace-layers.json")); err != nil {
		t.Errorf("no trace file of the layer drivers: %v", err)
	}
	for _, ws := range spec.Workloads {
		w := findWorkload(ws.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", ws.Name)
		}
		o, err := r.endToEnd(ctx, w, 7, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, w.name, o, endToEndMetrics, units)
		checkCorrect(t, w.name, o)
		// A simulator run holds two units, whose fingerprints endToEnd
		// compared: equal results for equal (config, seed).
		if !w.live() && o.Attempted != 2 {
			t.Errorf("%s: %d units, want 2", w.name, o.Attempted)
		}

		o, err = r.traced(ctx, w, 7, 0, drivers)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkMetrics(t, w.name+" traced", o, w.runMetrics(), units)
		checkCorrect(t, w.name+" traced", o)
		if _, err := os.Stat(filepath.Join(r.work, "trace-"+w.name+".json")); w.live() && err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
	// The one-line form of --trace 1 holds every per-layer name.
	o, err := r.perLayer(ctx, findWorkload("sim_lossy"), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, "sim_lossy --trace 1", o, perLayerMetrics, units)
	entries, err := os.ReadDir(r.work)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("temp directory left behind: %s", e.Name())
		}
	}
}

// TestFingerprintSensitive checks that the fingerprint moves when a
// simulated statistic does.
func TestFingerprintSensitive(t *testing.T) {
	w := findWorkload("sim_paper")
	a, err := runSimUnit(w, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSimUnit(w, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == b.Fingerprint {
		t.Fatal("seeds 1 and 2 share a fingerprint")
	}
}

// TestTraceSpans checks the shape of a traced live run: every request has
// its three nested spans.
func TestTraceSpans(t *testing.T) {
	r := toyRunner(t)
	tr := newTracer()
	w := findWorkload("live_durable")
	res, err := r.runLiveUnit(context.Background(), w, 3, true, true, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d requests failed", res.failed)
	}
	all := tr.analyze()[""]
	if got, want := len(all.roundtrip), res.attempted; got != want {
		t.Fatalf("%d requests with all three spans, want %d", got, want)
	}
	for i := range all.roundtrip {
		if all.self[i] < 0 || all.socket[i] < 0 {
			t.Fatalf("request %d: negative self time: handler self %.1f us, socket %.1f us", i, all.self[i], all.socket[i])
		}
	}
	if res.storage1.Puts == res.storage0.Puts {
		t.Error("the persistent store saw no Put")
	}
}

// TestCompare checks the three verdicts and the exit code of -compare.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall [3]float64, failed int) string {
		e2e := map[string]summary{}
		for _, m := range endToEndMetrics {
			e2e[m] = summary{Unit: unitOf(m), Median: 1, Min: 1, Max: 1}
		}
		e2e["wall_s"] = summary{Unit: "s", Median: wall[0], Min: wall[1], Max: wall[2]}
		raw, _ := json.Marshal(results{Workloads: []workloadResult{{Name: "sim_paper", Attempted: 10, Failed: failed, EndToEnd: e2e}}})
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", [3]float64{2, 1.98, 2.02}, 0)
	for _, tc := range []struct {
		name    string
		wall    [3]float64
		failed  int
		verdict string
		code    int
	}{
		{"same", [3]float64{2.01, 1.99, 2.03}, 0, "ok", 0},
		{"slower", [3]float64{2.6, 2.58, 2.62}, 0, "regressed", 1},
		{"noisy", [3]float64{2.05, 1.7, 2.6}, 0, "unresolved", 0},
		{"faster-noisy", [3]float64{1.5, 1.2, 1.9}, 0, "ok", 0},
		{"failing", [3]float64{2, 1.98, 2.02}, 1, "regressed", 1},
	} {
		var out bytes.Buffer
		code, err := compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), base, write(tc.name+".json", tc.wall, tc.failed))
		if err != nil {
			t.Fatal(err)
		}
		if code != tc.code || !bytes.Contains(out.Bytes(), []byte(tc.verdict)) {
			t.Errorf("%s: exit code %d, want %d with a %q row:\n%s", tc.name, code, tc.code, tc.verdict, out.String())
		}
	}

	// A file compared with itself: every row, all ok.
	var out bytes.Buffer
	spec := filepath.Join("..", "BENCHMARK.json")
	code, err := compareFiles(&out, spec, base, base)
	if err != nil || code != 0 || bytes.Count(out.Bytes(), []byte("sim_paper")) != len(endToEndMetrics)+1 {
		t.Errorf("self-compare: exit code %d, err %v, want one ok row per metric and failed_share:\n%s", code, err, out.String())
	}
	// A median of 0 is a metric the file does not hold: an error, not a row.
	if _, err := compareFiles(&out, spec, base, write("hole.json", [3]float64{0, 0, 0}, 0)); err == nil {
		t.Error("a results file with a 0 median compared without error")
	}
}

// TestPredictions checks that a violated prediction and a figure that was
// not measured both fail the full invocation.
func TestPredictions(t *testing.T) {
	m := func(v float64) metric { return metric{Value: v} }
	file := func() *results {
		return &results{
			Layers: map[string]metric{"serve.store_read_ns": m(500), "storage.put_group_us_p50": m(2600)},
			Workloads: []workloadResult{
				{Name: "sim_paper", PerLayer: map[string]metric{"network.retries": m(0), "network.frames_lost": m(0), "federation.backbone_msgs": m(0)}},
				{Name: "sim_fleet", PerLayer: map[string]metric{"federation.backbone_msgs": m(9)}},
				{Name: "sim_lossy", PerLayer: map[string]metric{"network.retries": m(5), "network.frames_lost": m(7)}},
				{Name: "live_mem", PerLayer: map[string]metric{"read_p50_us": m(40)}},
				{Name: "live_durable", PerLayer: map[string]metric{"storage.puts_per_write": m(3), "write_p50_us": m(7700)}},
			},
		}
	}
	if f := file(); !checkPredictions(io.Discard, f) {
		t.Error("predictions that hold reported as violated")
	}
	f := file()
	f.Workloads[2].PerLayer["network.retries"] = m(0)
	if checkPredictions(io.Discard, f) {
		t.Error("no retries on sim_lossy: prediction not reported as violated")
	}
	f = file()
	delete(f.Workloads[0].PerLayer, "network.retries")
	if checkPredictions(io.Discard, f) {
		t.Error("network.retries missing on sim_paper: the == 0 prediction passed vacuously")
	}
}

// TestRepeatFor checks the budget loop: the minimum unit count binds when
// the budget is spent, and inside the budget the loop runs until a unit
// fails.
func TestRepeatFor(t *testing.T) {
	n := 0
	if err := repeatFor(context.Background(), 0, 2, func() error { n++; return nil }); err != nil || n != 2 {
		t.Fatalf("zero budget: %d units, err %v; want the 2 minimum units", n, err)
	}
	n = 0
	stop := errors.New("stop")
	err := repeatFor(context.Background(), time.Hour, 1, func() error {
		if n++; n == 5 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || n != 5 {
		t.Fatalf("inside the budget: %d units, err %v; want 5 units and the unit's error", n, err)
	}
}
