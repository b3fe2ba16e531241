package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/serve"
	"repro/internal/workload"
)

// loadConfig runs args through the mcload flag surface and returns the
// experiment.Config it describes.
func loadConfig(t *testing.T, args ...string) (experiment.Config, error) {
	t.Helper()
	var o loadOpts
	var cfg experiment.Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o.register(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return cfg, o.parse(&cfg)
}

func TestConfigMirrorsMcsimSurface(t *testing.T) {
	cfg, err := loadConfig(t, "-seed", "3", "-days", "0.5", "-clients", "6",
		"-granularity", "oc", "-kind", "NQ", "-heat", "csh", "-arrival", "bursty",
		"-update", "0.2", "-beta", "1.5", "-lease", "120")
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	if cfg.Seed != 3 || cfg.Days != 0.5 || cfg.NumClients != 6 ||
		cfg.Granularity != core.ObjectCaching || cfg.QueryKind != workload.Navigational ||
		cfg.Heat != experiment.ChangingSkewedHeat || cfg.Arrival != experiment.BurstyArrival ||
		cfg.UpdateProb != 0.2 || cfg.Beta != 1.5 {
		t.Fatalf("config mismatch: %+v", cfg)
	}
	if cfg.Coherence != coherence.FixedLeaseStrategy || cfg.FixedLease != 120 {
		t.Fatal("-lease must select fixed-lease coherence")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("flag surface built an invalid config: %v", err)
	}
	if err := serve.ValidateLive(experiment.Defaults(cfg)); err != nil {
		t.Fatalf("flag surface built an unreplayable config: %v", err)
	}
}

func TestQuickDefaults(t *testing.T) {
	cfg, err := loadConfig(t, "-quick")
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	if cfg.Days != 0.06 || cfg.NumClients != 4 || cfg.NumObjects != 400 {
		t.Fatalf("quick defaults %+v; want the smoke scale", cfg)
	}
	// Explicit flags beat the quick defaults.
	cfg, _ = loadConfig(t, "-quick", "-days", "0.1", "-clients", "2")
	if cfg.Days != 0.1 || cfg.NumClients != 2 {
		t.Fatalf("explicit flags overridden by -quick: %+v", cfg)
	}
}

func TestConfigRejectsBadEnums(t *testing.T) {
	for _, args := range [][]string{
		{"-granularity", "zz"},
		{"-kind", "XX"},
		{"-heat", "flat"},
		{"-arrival", "never"},
	} {
		if _, err := loadConfig(t, args...); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestRunRejectsUnreachableService(t *testing.T) {
	// No service on this port: run must fail fast with exit code 1, not
	// hang — the first probe's connection error aborts the replay.
	if code := run([]string{"-url", "http://127.0.0.1:1", "-quick", "-days", "0.001"}); code != 1 {
		t.Fatalf("run against a dead port returned %d; want 1", code)
	}
}

// TestHelpOutput: the flag surface prints exactly the -h text recorded in
// testdata — every flag keeps its name, default and help line.
func TestHelpOutput(t *testing.T) {
	if _, ok := os.LookupEnv("MCLOAD_HELP_CHILD"); ok {
		os.Exit(run([]string{"-h"}))
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelpOutput$")
	cmd.Env = append(os.Environ(), "MCLOAD_HELP_CHILD=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("-h: %v\n%s", err, stderr.String())
	}
	want, err := os.ReadFile("testdata/help.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := stderr.String(); got != string(want) {
		t.Fatalf("-h output moved:\n%s\nwant\n%s", got, want)
	}
}
