package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/serve"
)

// storeConfig runs args through the mccached flag surface and returns the
// serve.Config it describes.
func storeConfig(t *testing.T, args ...string) (serve.Config, error) {
	t.Helper()
	var o serveOpts
	var cfg serve.Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o.register(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return cfg, o.parse(&cfg)
}

func TestStoreConfigFromFlags(t *testing.T) {
	cfg, err := storeConfig(t, "-seed", "9", "-objects", "500", "-granularity", "oc",
		"-policy", "lru", "-storage", "80", "-membuf", "10", "-beta", "1", "-lease", "30")
	if err != nil {
		t.Fatalf("storeConfig: %v", err)
	}
	if cfg.Granularity != core.ObjectCaching || cfg.Policy != "lru" ||
		cfg.NumObjects != 500 || cfg.StorageObjects != 80 ||
		cfg.MemBufferObjects != 10 || cfg.Beta != 1 || cfg.FixedLease != 30 {
		t.Fatalf("storeConfig mismatch: %+v", cfg)
	}
	if cfg.RelSeed != experiment.RelSeed(9) {
		t.Fatal("RelSeed must use the simulator's derivation so topologies agree")
	}
	if _, err := serve.Open("memory", cfg); err != nil {
		t.Fatalf("config does not open a store: %v", err)
	}
}

func TestStoreConfigRejectsBadGranularity(t *testing.T) {
	if _, err := storeConfig(t, "-granularity", "zz"); err == nil {
		t.Fatal("bad granularity accepted")
	}
	// nc parses as a granularity but the store must refuse it at Open.
	cfg, err := storeConfig(t, "-granularity", "nc")
	if err != nil {
		t.Fatalf("storeConfig: %v", err)
	}
	if _, err := serve.Open("memory", cfg); err == nil {
		t.Fatal("nc store opened; want ErrUnsupported")
	}
}

// TestRejectsNegativeTimeouts: a negative timeout or drain window fails the
// boot with exit 1 before anything listens.
func TestRejectsNegativeTimeouts(t *testing.T) {
	for _, args := range [][]string{
		{"-op-timeout", "-1s"},
		{"-admin-timeout", "-5ms"},
		{"-drain", "-1ns"},
	} {
		if _, err := storeConfig(t, args...); err == nil {
			t.Errorf("%v accepted", args)
		}
		if code := run(append(args, "-addr", "127.0.0.1:0")); code != 1 {
			t.Errorf("%v: exit %d; want 1", args, code)
		}
	}
}

// TestHelpOutput: the flag surface prints exactly the -h text recorded in
// testdata — every flag keeps its name, default and help line.
func TestHelpOutput(t *testing.T) {
	if _, ok := os.LookupEnv("MCCACHED_HELP_CHILD"); ok {
		os.Exit(run([]string{"-h"}))
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelpOutput$")
	cmd.Env = append(os.Environ(), "MCCACHED_HELP_CHILD=1")
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
