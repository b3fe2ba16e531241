package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// bindBase declares the flags a sweep takes onto cfg's fields: scale, seed,
// storage, and the channel fault environment (Exp7 overrides the loss/burst
// knobs it sweeps; all-zero fault flags leave the perfect-channel tables
// byte-identical). Defaults mirror the paper's Table 1 settings.
func bindBase(fs *flag.FlagSet, cfg *experiment.Config) {
	fs.Float64Var(&cfg.Days, "days", 0, "simulated days (0 = experiment default)")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "root random seed")
	fs.IntVar(&cfg.NumClients, "clients", 0, "number of mobile clients (0 = default)")
	fs.IntVar(&cfg.NumObjects, "objects", 0, "database objects (0 = default 2000)")
	fs.Float64Var(&cfg.ServerBufferRatio, "bufratio", 0, "server buffer as a fraction of the database, 0 < r <= 1 (0 = default 25%)")
	fs.StringVar(&cfg.StorageDSN, "storage", "", "persistent server tier DSN: file:<dir>[?sync=group|always|none] (empty = modeled disk only)")

	fs.Float64Var(&cfg.LossRate, "loss", 0, "per-frame loss probability on each channel (0 = perfect)")
	fs.Float64Var(&cfg.CorruptRate, "corrupt", 0, "per-frame corruption probability (CRC-detected at receiver)")
	fs.Float64Var(&cfg.BurstFraction, "burst", 0, "fraction of time in burst outage (Gilbert-Elliott bad state)")
	fs.Float64Var(&cfg.MeanBadSeconds, "burstlen", 0, "mean burst-outage length in seconds (0 = default 10)")
	fs.IntVar(&cfg.RetryMax, "retry", 0, "max retransmissions per request (0 = default 3, negative = none)")
	fs.Float64Var(&cfg.RetryBackoff, "backoff", 0, "base retry backoff in seconds (0 = default 1)")
}

// bindRun declares every simulation flag of `mcsim run` onto cfg's fields:
// the sweep base plus the knobs that describe one configuration. The five
// enum flags stay spellings until the returned step parses them onto cfg,
// once fs has parsed; ranges and combinations are Config.Validate's to
// judge.
func bindRun(fs *flag.FlagSet, cfg *experiment.Config) (parseEnums func() error) {
	bindBase(fs, cfg)

	gran := fs.String("granularity", "hc", "caching granularity: nc|ac|oc|hc")
	fs.StringVar(&cfg.Policy, "policy", "ewma-0.5", "replacement policy spec")
	kind := fs.String("kind", "AQ", "query kind: AQ|NQ")
	heat := fs.String("heat", "sh", "heat pattern: sh|csh|cyclic")
	fs.IntVar(&cfg.CSHChangeEvery, "change", 500, "CSH hot-set change rate in queries")
	arrival := fs.String("arrival", "poisson", "arrival pattern: poisson|bursty")
	fs.Float64Var(&cfg.UpdateProb, "update", 0.1, "update probability U")
	fs.Float64Var(&cfg.Beta, "beta", 0, "coherence staleness tolerance beta")
	strategy := fs.String("coherence", "lease", "coherence strategy: lease|fixed|irb")
	fs.Float64Var(&cfg.FixedLease, "lease", 0, "fixed-lease duration in seconds (with -coherence fixed)")
	fs.Float64Var(&cfg.IRWindow, "irwindow", 0, "broadcast-IR history window in seconds (with -coherence irb; 0 = 5 report intervals)")
	fs.IntVar(&cfg.CoopPeers, "coop", 0, "cooperative caching: peers scanned per local miss (0 = off)")
	fs.Float64Var(&cfg.ShedThreshold, "shed", 0, "timeout-heuristic threshold in seconds (0 = off)")
	fs.IntVar(&cfg.DisconnectedClients, "disconnected", 0, "number of disconnected clients V")
	fs.Float64Var(&cfg.DisconnectHours, "hours", 0, "disconnection duration D in hours")
	fs.IntVar(&cfg.SharedHotObjects, "shared", 0, "shared interest pool size in objects (0 = none)")
	fs.Float64Var(&cfg.SharedHotProb, "shareprob", 0, "probability a pick comes from the shared pool")
	fs.IntVar(&cfg.BroadcastAttrs, "broadcast", 0, "broadcast the shared pool's top-N attrs (requires -shared)")

	fs.IntVar(&cfg.Cells, "cells", 0, "fleet cells; >1 shards clients and the database across cell partitions")
	fs.IntVar(&cfg.RelayObjects, "relay", 0, "per-cell relay cache for remote partitions, in objects (0 = off)")
	fs.Float64Var(&cfg.BackboneBandwidthBps, "backbone-bps", 0, "inter-cell backbone bandwidth in bits/s (0 = default 10 Mbps)")
	fs.Float64Var(&cfg.BackboneLatency, "backbone-lat", 0, "inter-cell backbone one-way latency in seconds (0 = default 5 ms)")

	return func() (err error) {
		if cfg.Granularity, err = core.ParseGranularity(*gran); err != nil {
			return err
		}
		if cfg.QueryKind, err = workload.ParseKind(*kind); err != nil {
			return err
		}
		if cfg.Heat, err = experiment.ParseHeat(*heat); err != nil {
			return err
		}
		if cfg.Arrival, err = experiment.ParseArrival(*arrival); err != nil {
			return err
		}
		cfg.Coherence, err = coherence.Parse(*strategy)
		return err
	}
}

// profileFlags declares the profiling sinks shared by every subcommand.
func profileFlags(fs *flag.FlagSet) (cpu, mem, addr *string) {
	return fs.String("cpuprofile", "", "write a CPU profile to this file"),
		fs.String("memprofile", "", "write a heap profile to this file on exit"),
		fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
}

// runOpts carries the execution wrappers around one configured run.
type runOpts struct {
	traceFile string
	replicas  int
	reportDir string
}

// executeRun validates cfg and runs it, with optional replication, tracing,
// and report generation.
func executeRun(cfg experiment.Config, o runOpts) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	var tracer *trace.CSVTracer
	var traceOut *os.File
	if o.traceFile != "" {
		if o.reportDir != "" {
			return fmt.Errorf("-report writes its own trace.csv; drop -trace")
		}
		f, err := os.Create(o.traceFile)
		if err != nil {
			return err
		}
		traceOut, tracer = f, trace.NewCSV(f)
		cfg.Tracer = tracer
	}
	finishTrace := func() error {
		if tracer == nil {
			return nil
		}
		if err := tracer.Flush(); err != nil {
			traceOut.Close()
			return err
		}
		return traceOut.Close()
	}

	if o.replicas > 1 {
		rep := experiment.Replicate(cfg, o.replicas)
		fmt.Println(rep)
		if o.reportDir != "" {
			// Instrument the base seed's run; the replication summary
			// stays on stdout (it spans seeds, so it has no single
			// manifest).
			if _, err := instrumentedReport(o.reportDir, "run",
				runCommand(cfg), nil, cfg, false); err != nil {
				return err
			}
			fmt.Printf("report written to %s\n", o.reportDir)
		}
		return finishTrace()
	}

	start := time.Now()
	var res experiment.Result
	if o.reportDir != "" {
		r, err := instrumentedReport(o.reportDir, "run", runCommand(cfg), nil, cfg, false)
		if err != nil {
			return err
		}
		res = r
	} else {
		res = experiment.Run(cfg)
	}
	printResult(res)
	printThroughput(res.Events, time.Since(start))
	if o.reportDir != "" {
		fmt.Printf("report written to %s\n", o.reportDir)
	}
	return finishTrace()
}

// cmdRun implements `mcsim run`: one configuration from flags, or an
// archived configuration replayed from a report manifest via -config.
func cmdRun(args []string) {
	fs := flag.NewFlagSet("mcsim run", flag.ExitOnError)
	var cfg experiment.Config
	parseEnums := bindRun(fs, &cfg)
	configPath := fs.String("config", "", "replay an archived run: a report directory or its manifest.json")
	traceFile := fs.String("trace", "", "write a per-query CSV trace to this file")
	replicas := fs.Int("replicas", 1, "independent replications with consecutive seeds")
	reportDir := fs.String("report", "", "write manifest.json, report.md and trace.csv into this directory")
	parallel := fs.Int("parallel", 0, "concurrent simulations for fleet cells and -replicas (0 = one per CPU)")
	cpuProfile, memProfile, pprofAddr := profileFlags(fs)
	fs.Parse(args)
	experiment.SetDefaultWorkers(*parallel)

	stopProfiling, err := startProfiling(*cpuProfile, *memProfile, *pprofAddr)
	if err != nil {
		fatal(err)
	}
	defer stopProfiling()

	if *configPath != "" {
		if set := explicitSimFlags(fs); len(set) > 0 {
			fatal(fmt.Errorf("-config replays the manifest's configuration; drop %s",
				strings.Join(set, ", ")))
		}
		man, _, err := readManifest(*configPath)
		if err != nil {
			fatal(err)
		}
		if err := replayManifest(man, *reportDir); err != nil {
			fatal(err)
		}
		return
	}
	if err := parseEnums(); err != nil {
		fatal(err)
	}
	if err := executeRun(cfg, runOpts{
		traceFile: *traceFile,
		replicas:  *replicas,
		reportDir: *reportDir,
	}); err != nil {
		fatal(err)
	}
}

// explicitSimFlags lists simulation flags the user set alongside -config,
// which would silently lose to the manifest — rejected instead.
func explicitSimFlags(fs *flag.FlagSet) []string {
	harness := map[string]bool{
		"config": true, "report": true, "parallel": true,
		"cpuprofile": true, "memprofile": true, "pprof": true,
	}
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if !harness[f.Name] {
			set = append(set, "-"+f.Name)
		}
	})
	return set
}

// cmdExp implements `mcsim exp <id>`: regenerate experiment tables.
func cmdExp(args []string) {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		fatal(fmt.Errorf("usage: mcsim exp <id> [flags] — id is 1..11, table1, or all; experiments:\n%s",
			strings.TrimRight(expCatalogList(), "\n")))
	}
	which := args[0]
	fs := flag.NewFlagSet("mcsim exp", flag.ExitOnError)
	var base experiment.Config
	bindBase(fs, &base)
	quick := fs.Bool("quick", false, "reduced-scale pass (shorter horizon, sparser grids)")
	reportDir := fs.String("report", "", "write manifest.json, report.md and trace.csv into this directory")
	parallel := fs.Int("parallel", 0, "concurrent simulation runs (0 = one per CPU)")
	cpuProfile, memProfile, pprofAddr := profileFlags(fs)
	fs.Parse(args[1:])
	experiment.SetDefaultWorkers(*parallel)

	stopProfiling, err := startProfiling(*cpuProfile, *memProfile, *pprofAddr)
	if err != nil {
		fatal(err)
	}
	defer stopProfiling()

	if err := checkQuickStorage(*quick, base.StorageDSN); err != nil {
		fatal(err)
	}
	if err := runExperiments(which, base, *quick, *reportDir); err != nil {
		fatal(err)
	}
}

// checkQuickStorage rejects -quick together with a file storage tier: the
// quick grids exist to be fast and hermetic, and a real on-disk tier is
// neither, so the combination is a named conflict rather than a slow
// surprise.
func checkQuickStorage(quick bool, dsn string) error {
	if quick && dsn != "" {
		return fmt.Errorf("-quick and -storage %q: quick grids run without a persistent tier: %w",
			dsn, experiment.ErrConflict)
	}
	return nil
}

// cmdReport implements `mcsim report <dir>`: summarize an archived report
// directory from its manifest; -verify re-executes the recorded simulation
// and checks the reproduction against the archived hashes.
func cmdReport(args []string) {
	var dir string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		dir, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("mcsim report", flag.ExitOnError)
	verify := fs.Bool("verify", false, "re-run the archived simulation and check it reproduces")
	parallel := fs.Int("parallel", 0, "concurrent simulation runs during -verify (0 = one per CPU)")
	fs.Parse(args)
	if dir == "" {
		dir = fs.Arg(0)
	}
	if dir == "" {
		fatal(fmt.Errorf("usage: mcsim report <dir> [-verify]"))
	}
	experiment.SetDefaultWorkers(*parallel)

	man, resolved, err := readManifest(dir)
	if err != nil {
		fatal(err)
	}
	printManifestSummary(resolved, man)
	if *verify {
		if err := verifyManifest(resolved, man); err != nil {
			fatal(err)
		}
	}
}

// printManifestSummary renders the manifest facts a reader checks first.
func printManifestSummary(dir string, man report.Manifest) {
	fmt.Printf("report %s\n", dir)
	fmt.Printf("  experiment   %s\n", man.Experiment)
	fmt.Printf("  command      %s\n", man.Command)
	fmt.Printf("  config       %s\n", man.Config)
	fmt.Printf("  seed         %d\n", man.Seed)
	fmt.Printf("  environment  %s, git %s\n", man.GoVersion, man.GitRevision)
	fmt.Printf("  wall time    %.1fs\n", man.WallSeconds)
	if man.PeakRSSMB > 0 {
		fmt.Printf("  peak RSS     %.0f MB\n", man.PeakRSSMB)
	}
	fmt.Printf("  samples      %d every %gs across %d series\n",
		man.Samples, man.IntervalS, len(man.Series))
	if man.TraceRows > 0 {
		fmt.Printf("  trace        %d rows (trace.csv)\n", man.TraceRows)
	}
	for _, t := range man.Tables {
		fmt.Printf("  table        %s  sha256 %s\n", t.Title, shortHash(t.SHA256))
	}
}

// shortHash abbreviates a hex digest for display.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
