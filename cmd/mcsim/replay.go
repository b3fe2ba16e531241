package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiment"
	"repro/internal/report"
)

// readManifest loads a report manifest from path — either the manifest.json
// itself or the report directory holding it — and returns the manifest plus
// the directory the other artifacts (report.md, trace.csv) live in.
func readManifest(path string) (report.Manifest, string, error) {
	var man report.Manifest
	info, err := os.Stat(path)
	if err != nil {
		return man, "", err
	}
	file, dir := path, filepath.Dir(path)
	if info.IsDir() {
		dir, file = path, filepath.Join(path, "manifest.json")
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return man, "", err
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return man, "", fmt.Errorf("%s: %w", file, err)
	}
	return man, dir, nil
}

// manifestBase reconstructs the sweep base config an experiment manifest's
// run was launched with: exactly the fields the exp flag surface sets,
// taken from the archived representative config. Those fields are either
// experiment-invariant or already defaulted — and defaulting is idempotent,
// so feeding the defaulted values back reproduces the identical grid.
func manifestBase(man report.Manifest) experiment.Config {
	c := man.Config
	return experiment.Config{
		Seed:           man.Seed,
		Days:           c.Days,
		NumClients:     c.NumClients,
		NumObjects:     c.NumObjects,
		LossRate:       c.LossRate,
		CorruptRate:    c.CorruptRate,
		BurstFraction:  c.BurstFraction,
		MeanBadSeconds: c.MeanBadSeconds,
		RetryMax:       c.RetryMax,
		RetryBackoff:   c.RetryBackoff,
	}
}

// quickFromManifest reports whether the archived sweep used the -quick
// grids. Manifests written before the Quick field are recognized by the
// recorded reproduce command.
func quickFromManifest(man report.Manifest) bool {
	return man.Quick || strings.Contains(man.Command, " -quick")
}

// replayManifest re-executes the simulation an archived manifest records
// (mcsim run -config). A run manifest reruns its single configuration; an
// experiment manifest reruns the sweep and verifies the regenerated tables
// hash to the archived digests. With reportDir set, the rerun also writes
// fresh report artifacts there.
func replayManifest(man report.Manifest, reportDir string) error {
	fmt.Printf("replaying %s: %s\n", man.Experiment, man.Command)
	if !strings.HasPrefix(man.Experiment, "exp") {
		return executeRun(man.Config, runOpts{replicas: 1, reportDir: reportDir})
	}
	which := strings.TrimPrefix(man.Experiment, "exp")
	rep, err := runExperimentsRep(which, manifestBase(man), quickFromManifest(man), reportDir)
	if err != nil {
		return err
	}
	if err := compareTables(man.Tables, rep); err != nil {
		return err
	}
	fmt.Printf("replay reproduced all %d archived table hashes\n", len(man.Tables))
	return nil
}

// verifyManifest checks that an archived report still reproduces
// (mcsim report -verify). Experiment manifests rerun the sweep and compare
// table hashes; run manifests regenerate the whole report into a scratch
// directory and demand byte-identical report.md.
func verifyManifest(dir string, man report.Manifest) error {
	if strings.HasPrefix(man.Experiment, "exp") {
		rep, err := runExperimentsRep(strings.TrimPrefix(man.Experiment, "exp"),
			manifestBase(man), quickFromManifest(man), "")
		if err != nil {
			return err
		}
		if err := compareTables(man.Tables, rep); err != nil {
			return err
		}
		fmt.Printf("verified: all %d archived table hashes reproduce\n", len(man.Tables))
		return nil
	}

	if err := man.Config.Validate(); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "mcsim-verify-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if _, err := instrumentedReport(tmp, man.Experiment, man.Command, nil,
		man.Config, man.Quick); err != nil {
		return err
	}
	want, err := os.ReadFile(filepath.Join(dir, "report.md"))
	if err != nil {
		return err
	}
	got, err := os.ReadFile(filepath.Join(tmp, "report.md"))
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("report.md does not reproduce byte-for-byte (config or code drift since the archive)")
	}
	fmt.Println("verified: report.md reproduces byte-for-byte")
	return nil
}

// compareTables checks the regenerated tables of rep against the archived
// title + SHA-256 pairs, in order.
func compareTables(want []report.TableHash, rep *experiment.Report) error {
	var got []*experiment.Table
	if rep != nil {
		got = rep.Tables
	}
	if len(got) != len(want) {
		return fmt.Errorf("replay produced %d tables, manifest records %d", len(got), len(want))
	}
	for i, w := range want {
		sum := fmt.Sprintf("%x", sha256.Sum256([]byte(got[i].String())))
		if got[i].Title != w.Title {
			return fmt.Errorf("table %d is %q, manifest records %q", i, got[i].Title, w.Title)
		}
		if sum != w.SHA256 {
			return fmt.Errorf("table %q does not reproduce: got sha256 %s, manifest records %s",
				w.Title, shortHash(sum), shortHash(w.SHA256))
		}
	}
	return nil
}
