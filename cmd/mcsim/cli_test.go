package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/report"
	"repro/internal/workload"
)

// TestSimOptsDefaults pins what a bare `mcsim run` asks for: the paper's
// Table 1 configuration, everything else left to experiment.Defaults.
func TestSimOptsDefaults(t *testing.T) {
	cfg, err := flagConfig()
	if err != nil {
		t.Fatal(err)
	}
	want := experiment.Config{
		Seed:           1,
		Granularity:    core.HybridCaching,
		Policy:         "ewma-0.5",
		QueryKind:      workload.Associative,
		Heat:           experiment.SkewedHeat,
		CSHChangeEvery: 500,
		Arrival:        experiment.PoissonArrival,
		UpdateProb:     0.1,
		Coherence:      coherence.LeaseStrategy,
	}
	if cfg != want {
		t.Fatalf("flag defaults moved:\n%+v\nvs\n%+v", cfg, want)
	}
}

func TestSimOptsFleetFlags(t *testing.T) {
	cfg, err := flagConfig(
		"-clients", "100", "-cells", "4", "-relay", "50",
		"-backbone-bps", "2e6", "-backbone-lat", "0.01",
		"-granularity", "oc", "-coherence", "fixed", "-lease", "30")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumClients != 100 || cfg.Cells != 4 || cfg.RelayObjects != 50 ||
		cfg.BackboneBandwidthBps != 2e6 || cfg.BackboneLatency != 0.01 {
		t.Fatalf("fleet flags not applied: %+v", cfg)
	}
	if cfg.Granularity != core.ObjectCaching ||
		cfg.Coherence != coherence.FixedLeaseStrategy || cfg.FixedLease != 30 {
		t.Fatalf("sim flags not applied: %+v", cfg)
	}
}

func TestSimOptsBadCoherence(t *testing.T) {
	if _, err := flagConfig("-coherence", "psychic"); err == nil || !strings.Contains(err.Error(), "coherence") {
		t.Fatalf("bad coherence accepted: %v", err)
	}
}

// TestDocsCoherenceSpellings: every `-coherence a|b|...` the user docs
// (README.md, DESIGN.md, docs/*.md) show must name strategies
// coherence.Parse accepts, so a retired spelling cannot linger in them.
func TestDocsCoherenceSpellings(t *testing.T) {
	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "../../README.md", "../../DESIGN.md")
	flagUse := regexp.MustCompile(`-coherence[ =]+([a-z][a-z|-]*)`)
	uses := 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range flagUse.FindAllStringSubmatch(line, -1) {
				for _, name := range strings.Split(m[1], "|") {
					uses++
					if _, err := coherence.Parse(name); err != nil {
						t.Errorf("%s:%d: %q: %v", filepath.Base(doc), i+1, m[0], err)
					}
				}
			}
		}
	}
	if uses == 0 {
		t.Fatal("no -coherence spelling found in the docs; the scan is vacuous")
	}
}

func TestExplicitSimFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	bindRun(fs, &experiment.Config{})
	fs.String("config", "", "")
	fs.String("report", "", "")
	fs.Int("parallel", 0, "")
	if err := fs.Parse([]string{"-config", "x", "-report", "y", "-parallel", "2",
		"-cells", "4", "-loss", "0.1"}); err != nil {
		t.Fatal(err)
	}
	set := explicitSimFlags(fs)
	if len(set) != 2 || set[0] != "-cells" && set[1] != "-cells" {
		t.Fatalf("explicit flags %v, want [-cells -loss]", set)
	}
}

// TestReadManifestDirAndFile: a report directory and its manifest.json
// resolve to the same manifest and artifact directory.
func TestReadManifestDirAndFile(t *testing.T) {
	dir := t.TempDir()
	cfg := experiment.Config{Seed: 5, Days: 0.02, NumClients: 2, NumObjects: 200}
	if _, err := instrumentedReport(dir, "run", runCommand(cfg), nil, cfg, false); err != nil {
		t.Fatal(err)
	}
	fromDir, d1, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, d2, err := readManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != dir || d2 != dir {
		t.Fatalf("resolved dirs %q, %q, want %q", d1, d2, dir)
	}
	if fromDir.Experiment != "run" || fromFile.Seed != 5 {
		t.Fatalf("manifests incomplete: %+v / %+v", fromDir, fromFile)
	}
	if _, _, err := readManifest(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing path accepted")
	}
}

// TestVerifyRunManifest pins the replay loop for run reports: the archived
// report.md reproduces byte-for-byte, and a tampered archive is caught.
func TestVerifyRunManifest(t *testing.T) {
	dir := t.TempDir()
	cfg := experiment.Config{Seed: 5, Days: 0.02, NumClients: 2, NumObjects: 200}
	if _, err := instrumentedReport(dir, "run", runCommand(cfg), nil, cfg, false); err != nil {
		t.Fatal(err)
	}
	man, _, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyManifest(dir, man); err != nil {
		t.Fatalf("pristine archive failed verification: %v", err)
	}

	md := filepath.Join(dir, "report.md")
	if err := os.WriteFile(md, []byte("tampered\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := verifyManifest(dir, man); err == nil ||
		!strings.Contains(err.Error(), "does not reproduce") {
		t.Fatalf("tampered archive passed verification: %v", err)
	}
}

// TestReplayExpManifest is the acceptance path: an archived experiment
// report replays from its manifest alone and reproduces the recorded table
// hashes; a doctored hash is rejected.
func TestReplayExpManifest(t *testing.T) {
	base := experiment.Config{Seed: 3, Days: 0.02, NumClients: 2, NumObjects: 200}
	dir := t.TempDir()
	if err := runExperiments("1", base, false, dir); err != nil {
		t.Fatal(err)
	}
	man, _, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := replayManifest(man, ""); err != nil {
		t.Fatalf("replay from manifest failed: %v", err)
	}

	man.Tables[0].SHA256 = strings.Repeat("0", 64)
	if err := replayManifest(man, ""); err == nil ||
		!strings.Contains(err.Error(), "does not reproduce") {
		t.Fatalf("doctored table hash passed replay: %v", err)
	}
}

// TestReplayRetiredEngineField: manifests archived while Config still had
// an Engine field ("procs"|"sm") keep replaying — the field is ignored and
// the recorded hashes still reproduce. The exp manifest was written at the
// last commit that carried the goroutine engine, on "procs".
func TestReplayRetiredEngineField(t *testing.T) {
	const archived = "../../internal/experiment/testdata/manifests/exp10-quick.json"
	raw, err := os.ReadFile(archived)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"Engine": "procs"`) {
		t.Fatalf("%s no longer carries the retired field; the test is vacuous", archived)
	}
	man, dir, err := readManifest(archived)
	if err != nil {
		t.Fatal(err)
	}
	if err := replayManifest(man, ""); err != nil {
		t.Fatalf("run -config on a parent-commit manifest: %v", err)
	}
	if err := verifyManifest(dir, man); err != nil {
		t.Fatalf("report -verify on a parent-commit manifest: %v", err)
	}

	// A run manifest with the field: report.md must still reproduce.
	runDir := t.TempDir()
	cfg := experiment.Config{Seed: 5, Days: 0.02, NumClients: 2, NumObjects: 200}
	if _, err := instrumentedReport(runDir, "run", runCommand(cfg), nil, cfg, false); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(runDir, "manifest.json")
	raw, err = os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(raw), `"config": {`, `"config": {"Engine": "sm",`, 1)
	if old == string(raw) {
		t.Fatal("manifest layout changed; could not plant the retired field")
	}
	if err := os.WriteFile(file, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	man, _, err = readManifest(runDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyManifest(runDir, man); err != nil {
		t.Fatalf("report -verify on a run manifest with the retired field: %v", err)
	}
}

// TestEngineFlagRetired: -engine is an unknown flag now.
func TestEngineFlagRetired(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	bindRun(fs, &experiment.Config{})
	if err := fs.Parse([]string{"-engine", "sm"}); err == nil ||
		!strings.Contains(err.Error(), "not defined") {
		t.Fatalf("-engine accepted: %v", err)
	}
}

// TestManifestBase: replay reconstructs exactly the flag-settable base.
func TestManifestBase(t *testing.T) {
	base := experiment.Config{Seed: 3, Days: 0.02, NumClients: 2, NumObjects: 200,
		LossRate: 0.05, RetryMax: 2}
	rep := experiment.Exp1(base)
	man := reportManifestFor(t, rep)
	got := manifestBase(man)
	want := base
	want.Days = rep.Results[0].Config.Days // defaulted value round-trips
	if got != want {
		t.Fatalf("manifest base %+v, want %+v", got, want)
	}
	if quickFromManifest(man) {
		t.Fatal("full sweep flagged quick")
	}
	man.Command = "mcsim exp 1 -seed 3 -quick -report <dir>"
	if !quickFromManifest(man) {
		t.Fatal("pre-Quick-field manifest command not recognized")
	}
}

// reportManifestFor builds the manifest an instrumented rerun of rep's
// first configuration would write, without touching disk.
func reportManifestFor(t *testing.T, rep *experiment.Report) report.Manifest {
	t.Helper()
	cfg := rep.Results[0].Config
	return report.NewManifest("exp1", "mcsim exp 1 -seed 3 -report <dir>", cfg, rep, nil)
}

// TestCLIExitPaths re-executes the test binary as mcsim (the child branch
// below runs main on the argv under test) and pins how bad input leaves the
// process: invalid values exit 1 with one "mcsim: ..." line wrapping the
// sentinel, the retired -run/-exp spellings and unknown flags exit 2 with
// the usage, and nothing ever reaches a goroutine trace.
func TestCLIExitPaths(t *testing.T) {
	const sep = "\x1f"
	if argv, ok := os.LookupEnv("MCSIM_CLI_CHILD"); ok {
		os.Args = append([]string{"mcsim"}, strings.Split(argv, sep)...)
		main()
		os.Exit(0)
	}

	outOfRange, conflict := experiment.ErrOutOfRange.Error(), experiment.ErrConflict.Error()
	cases := []struct {
		argv   string
		status int
		stderr string // required substring
	}{
		{"run -update 1.5", 1, outOfRange},
		{"run -days -1", 1, outOfRange},
		{"run -loss 2", 1, outOfRange},
		{"run -objects 1", 1, outOfRange},
		{"run -objects 5", 1, conflict},
		{"run -hours 30 -disconnected 2", 1, outOfRange},
		{"run -heat csh -change -5", 1, outOfRange},
		{"run -shared 10 -shareprob 3", 1, outOfRange},
		{"run -cells -2", 1, outOfRange},
		{"run -relay -5", 1, outOfRange},
		{"run -coop -2", 1, outOfRange},
		{"run -shed -1", 1, outOfRange},
		{"run -lease 60", 1, conflict},
		{"exp 1 -clients -3", 1, outOfRange},
		{"exp 1 -bufratio 7", 1, outOfRange},
		{"exp 6 -quick -clients 3", 1, conflict},
		{"exp 2 -objects 10", 1, conflict},
		{"exp 8 -storage file:x", 1, conflict},
		{"-exp 1", 2, "usage:"},
		{"-run", 2, "usage:"},
		{"run -engine sm", 2, "flag provided but not defined"},
		{"run -heat warm", 1, "unknown heat"},
		{"run -coherence ir", 1, `coherence: unknown strategy "ir"`},
	}
	for _, c := range cases {
		t.Run(c.argv, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run", "^TestCLIExitPaths$")
			cmd.Dir = t.TempDir()
			cmd.Env = append(os.Environ(), "MCSIM_CLI_CHILD="+strings.ReplaceAll(c.argv, " ", sep))
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != c.status {
				t.Fatalf("exit = %v, want status %d\nstderr: %s", err, c.status, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Fatalf("stderr lacks %q:\n%s", c.stderr, stderr.String())
			}
			if c.status == 1 && (!strings.HasPrefix(stderr.String(), "mcsim: ") ||
				strings.Count(stderr.String(), "\n") != 1) {
				t.Fatalf("stderr is not one mcsim: line:\n%s", stderr.String())
			}
			if strings.Contains(stdout.String()+stderr.String(), "goroutine ") {
				t.Fatalf("goroutine trace:\n%s%s", stdout.String(), stderr.String())
			}
			if strings.Contains(stdout.String(), "---") {
				t.Fatalf("a table was printed:\n%s", stdout.String())
			}
		})
	}
}

// TestHelpOutput: `mcsim run -h` and `mcsim exp 1 -h` print exactly the
// text recorded in testdata — every flag keeps its name, default and help
// line.
func TestHelpOutput(t *testing.T) {
	for argv, golden := range map[string]string{
		"run -h":   "testdata/run-help.txt",
		"exp 1 -h": "testdata/exp-help.txt",
	} {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestCLIExitPaths$")
		cmd.Env = append(os.Environ(), "MCSIM_CLI_CHILD="+strings.ReplaceAll(argv, " ", "\x1f"))
		var stderr strings.Builder
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s: %v\n%s", argv, err, stderr.String())
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := stderr.String(); got != string(want) {
			t.Errorf("%s output moved:\n%s\nwant\n%s", argv, got, want)
		}
	}
}
