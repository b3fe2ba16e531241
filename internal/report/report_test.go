package report

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenInput runs one small instrumented simulation (fixed seed, faulty
// channels so every chart family renders) and assembles the generator
// input exactly as cmd/mcsim does.
func goldenInput() Input {
	cfg := experiment.Config{
		Label:       "golden",
		Seed:        7,
		NumObjects:  200,
		NumClients:  2,
		Days:        0.02,
		Granularity: core.HybridCaching,
		QueryKind:   workload.Associative,
		UpdateProb:  0.1,
		LossRate:    0.05,
	}
	col := &trace.Collector{}
	cfg.Tracer = col
	cfg.Obs = obs.New(60)
	res := experiment.Run(cfg)

	tbl := experiment.NewTable("Exp0: golden fixture", "scheme", "hit", "resp")
	tbl.Addf("HC", res.HitRatio, res.MeanResponse)
	rep := &experiment.Report{Name: "golden", Results: []experiment.Result{res}, Tables: []*experiment.Table{tbl}}

	man := NewManifest("golden", "mcsim -exp 1 -report out/", res.Config, rep, cfg.Obs)
	return Input{Manifest: man, Rep: rep, Result: res, Reg: cfg.Obs, Trace: col}
}

// TestMarkdownGolden pins the report generator's exact output bytes for a
// fixed seed. Regenerate with `go test ./internal/report -update` after an
// intentional format change.
func TestMarkdownGolden(t *testing.T) {
	got := Markdown(goldenInput())
	golden := filepath.Join("testdata", "report.golden.md")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report bytes diverge from golden (len %d vs %d); run with -update if the change is intentional",
			len(got), len(want))
	}
}

// TestMarkdownReproducible is the determinism contract end to end: two
// independent instrumented runs of the same seed yield identical bytes.
func TestMarkdownReproducible(t *testing.T) {
	a := Markdown(goldenInput())
	b := Markdown(goldenInput())
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different report bytes")
	}
	for _, want := range []string{
		"## Timelines", "<svg", "Channel utilization", "Hit-ratio convergence",
		"Eviction rate", "Loss and retries", "## Refresh-time distribution",
	} {
		if !strings.Contains(string(a), want) {
			t.Fatalf("report missing %q", want)
		}
	}
	if n := strings.Count(string(a), "<svg"); n < 3 {
		t.Fatalf("report has %d SVG timelines, want >= 3", n)
	}
}

// TestLiveReportOmitsUnmeasuredRows: a live replay measures neither
// channel utilization nor the server buffer, so its report must not print
// them as zeros; a simulated run's report keeps both rows.
func TestLiveReportOmitsUnmeasuredRows(t *testing.T) {
	in := goldenInput()
	for _, live := range []bool{false, true} {
		in.Manifest.Live = live
		md := string(Markdown(in))
		for _, row := range []string{"| uplink / downlink utilization |", "| server buffer hit ratio |"} {
			switch has := strings.Contains(md, row); {
			case live && has:
				t.Errorf("live report prints %q, which a replay does not measure", row)
			case !live && !has:
				t.Errorf("simulated report lacks %q", row)
			}
		}
	}
}

// TestWriteFiles checks the on-disk artifact set: manifest.json (valid
// JSON, environment stamped), report.md (equal to Markdown), trace.csv
// (header plus one row per record).
func TestWriteFiles(t *testing.T) {
	dir := t.TempDir()
	in := goldenInput()
	if err := Write(dir, in); err != nil {
		t.Fatal(err)
	}

	mj, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(mj, &man); err != nil {
		t.Fatalf("manifest.json invalid: %v", err)
	}
	if man.GoVersion == "" || man.GitRevision == "" || man.Seed != 7 {
		t.Fatalf("manifest incomplete: %+v", man)
	}
	// Peak RSS is an environment fact: stamped where /proc reports it,
	// never rendered into report.md.
	if _, err := os.Stat("/proc/self/status"); err == nil && man.PeakRSSMB <= 0 {
		t.Fatalf("peak_rss_mb = %v on a host with /proc", man.PeakRSSMB)
	}
	if !strings.Contains(string(mj), `"peak_rss_mb"`) || strings.Contains(string(Markdown(in)), "peak_rss") {
		t.Fatal("peak RSS must be in manifest.json and only there")
	}
	if len(man.Tables) != 1 || len(man.Tables[0].SHA256) != 64 {
		t.Fatalf("table hashes malformed: %+v", man.Tables)
	}
	if len(man.Series) == 0 || man.Samples == 0 {
		t.Fatalf("series listing missing: %+v", man)
	}

	md, err := os.ReadFile(filepath.Join(dir, "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(md, Markdown(in)) {
		t.Fatal("report.md differs from Markdown output")
	}

	tc, err := os.ReadFile(filepath.Join(dir, "trace.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(tc), "\n")
	if lines != in.Trace.Len()+1 {
		t.Fatalf("trace.csv has %d lines, want %d records + header", lines, in.Trace.Len())
	}
	if man.TraceRows != in.Trace.Len() {
		t.Fatalf("manifest trace_rows %d, want %d", man.TraceRows, in.Trace.Len())
	}
}
