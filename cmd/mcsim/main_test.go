package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/report"
	"repro/internal/workload"
)

// flagConfig parses args through the `mcsim run` flag surface and returns
// the Config it describes.
func flagConfig(args ...string) (experiment.Config, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var cfg experiment.Config
	parseEnums := bindRun(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		return experiment.Config{}, err
	}
	return cfg, parseEnums()
}

func TestBuildConfigDefaults(t *testing.T) {
	cfg, err := flagConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Granularity != core.HybridCaching {
		t.Fatalf("granularity %v", cfg.Granularity)
	}
	if cfg.QueryKind != workload.Associative {
		t.Fatalf("kind %v", cfg.QueryKind)
	}
	if cfg.Heat != experiment.SkewedHeat || cfg.Arrival != experiment.PoissonArrival {
		t.Fatal("heat/arrival defaults wrong")
	}
}

func TestBuildConfigVariants(t *testing.T) {
	cfg, err := flagConfig("-granularity", "oc", "-policy", "lru-3", "-kind", "nq",
		"-heat", "cyclic", "-arrival", "bursty", "-change", "300", "-update", "0.3",
		"-beta", "1", "-disconnected", "4", "-hours", "5", "-days", "2", "-seed", "9",
		"-clients", "5", "-objects", "500")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Granularity != core.ObjectCaching ||
		cfg.QueryKind != workload.Navigational ||
		cfg.Heat != experiment.CyclicHeat ||
		cfg.Arrival != experiment.BurstyArrival {
		t.Fatalf("config variants wrong: %+v", cfg)
	}
	if cfg.DisconnectedClients != 4 || cfg.DisconnectHours != 5 {
		t.Fatal("disconnection params lost")
	}
	if cfg.Days != 2 || cfg.Seed != 9 || cfg.NumClients != 5 || cfg.NumObjects != 500 {
		t.Fatal("scale params lost")
	}
	csh, err := flagConfig("-granularity", "ac", "-policy", "mean", "-heat", "csh",
		"-change", "700", "-update", "0")
	if err != nil || csh.Heat != experiment.ChangingSkewedHeat || csh.CSHChangeEvery != 700 {
		t.Fatalf("csh parse: %+v, %v", csh, err)
	}
}

func TestBuildConfigErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-granularity", "xx"},
		{"-kind", "ZZ"},
		{"-heat", "warm"},
		{"-arrival", "uniform"},
	} {
		if _, err := flagConfig(args...); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

func TestRunExperimentsUnknown(t *testing.T) {
	err := runExperiments("banana", experiment.Config{}, false, "")
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
	// The error teaches the valid range: every catalog key with its
	// one-line summary.
	msg := err.Error()
	if !strings.Contains(msg, "want 1..11, table1, all") {
		t.Fatalf("error lacks valid range: %v", msg)
	}
	for _, e := range experiments {
		if !strings.Contains(msg, e.summary) {
			t.Fatalf("error lacks %q summary: %v", e.key, msg)
		}
	}
}

func TestRunExperimentsTable1(t *testing.T) {
	if err := runExperiments("table1", experiment.Config{}, false, ""); err != nil {
		t.Fatal(err)
	}
	// table1 runs no simulation, so there is nothing to instrument.
	err := runExperiments("table1", experiment.Config{}, false, t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "-report") {
		t.Fatalf("table1 with -report: err = %v", err)
	}
}

// TestRunExperimentsReport is the acceptance path end to end: a tiny Exp1
// sweep with -report produces manifest.json, report.md with at least three
// SVG timelines, and trace.csv — and a rerun with the same seed reproduces
// report.md byte for byte.
func TestRunExperimentsReport(t *testing.T) {
	base := experiment.Config{Seed: 3, Days: 0.02, NumClients: 2, NumObjects: 200}
	run := func() (string, []byte) {
		dir := t.TempDir()
		if err := runExperiments("1", base, false, dir); err != nil {
			t.Fatal(err)
		}
		md, err := os.ReadFile(filepath.Join(dir, "report.md"))
		if err != nil {
			t.Fatal(err)
		}
		return dir, md
	}
	dir, md := run()

	if n := strings.Count(string(md), "<svg"); n < 3 {
		t.Fatalf("report has %d SVG timelines, want >= 3", n)
	}
	var man report.Manifest
	mj, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mj, &man); err != nil {
		t.Fatalf("manifest.json invalid: %v", err)
	}
	if man.Experiment != "exp1" || man.Seed != 3 || len(man.Tables) == 0 ||
		!strings.Contains(man.Command, "exp 1") {
		t.Fatalf("manifest incomplete: %+v", man)
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.csv")); err != nil {
		t.Fatalf("trace.csv missing: %v", err)
	}

	_, md2 := run()
	if !bytes.Equal(md, md2) {
		t.Fatal("same seed produced different report.md bytes")
	}
}

// TestSweepValidatedWhole: a sweep whose grid contradicts the base is
// refused before its first run — the error names the run and wraps the
// sentinel, and no table reaches stdout — instead of dying mid-sweep.
func TestSweepValidatedWhole(t *testing.T) {
	for _, c := range []struct {
		which  string
		base   experiment.Config
		quick  bool
		label  string
		wanted error
	}{
		{"6", experiment.Config{NumClients: 3}, true, "exp6/ac/V=5/D=1", experiment.ErrConflict},
		{"2", experiment.Config{NumObjects: 10}, false, "exp2/lru/AQ/SH", experiment.ErrConflict},
		{"8", experiment.Config{StorageDSN: "file:" + t.TempDir()}, false, "exp8/fleet=10/cells=2", experiment.ErrConflict},
	} {
		stdout := captureStdout(t, func() {
			rep, err := runExperimentsRep(c.which, c.base, c.quick, "")
			if rep != nil || !errors.Is(err, c.wanted) || !strings.Contains(err.Error(), c.label) {
				t.Errorf("exp %s: rep %v, err %v; want %v naming %s", c.which, rep, err, c.wanted, c.label)
			}
		})
		if strings.Contains(stdout, "---") {
			t.Errorf("exp %s printed a table before failing:\n%s", c.which, stdout)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		out, _ := io.ReadAll(r)
		done <- string(out)
	}()
	fn()
	os.Stdout = orig
	w.Close()
	return <-done
}

func TestQuickStorageConflict(t *testing.T) {
	if err := checkQuickStorage(true, "file:/tmp/tier"); !errors.Is(err, experiment.ErrConflict) {
		t.Fatalf("quick + storage = %v, want ErrConflict", err)
	}
	if err := checkQuickStorage(true, ""); err != nil {
		t.Fatalf("quick without storage rejected: %v", err)
	}
	if err := checkQuickStorage(false, "file:/tmp/tier"); err != nil {
		t.Fatalf("storage without quick rejected: %v", err)
	}
}

func TestStorageFlagsReachConfig(t *testing.T) {
	args := []string{"-objects", "5000", "-bufratio", "0.05", "-storage", "file:/tmp/tier?sync=none"}
	cfg, err := flagConfig(args...)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumObjects != 5000 || cfg.ServerBufferRatio != 0.05 ||
		cfg.StorageDSN != "file:/tmp/tier?sync=none" {
		t.Fatalf("storage flags lost: %+v", cfg)
	}
	var base experiment.Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	bindBase(fs, &base)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if base.NumObjects != 5000 || base.ServerBufferRatio != 0.05 ||
		base.StorageDSN != "file:/tmp/tier?sync=none" {
		t.Fatalf("exp base lost storage flags: %+v", base)
	}
}
