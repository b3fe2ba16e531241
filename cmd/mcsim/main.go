// Command mcsim regenerates the paper's experiments or runs a single
// custom simulation of the mobile caching system.
//
// The command surface is three subcommands:
//
//	mcsim run [flags]        one configuration (single cell or a fleet)
//	mcsim exp <id> [flags]   experiment tables: 1..11, table1, or all
//	mcsim report <dir>       summarize a report directory; -verify replays it
//
// Regenerate a figure (the experiment numbers match §5 of the paper):
//
//	mcsim exp 1           # Figure 2: caching granularity
//	mcsim exp 2           # Figure 3: replacement policies, best case
//	mcsim exp 3           # Figure 4: replacement policies, realistic
//	mcsim exp 4           # Figures 5+6: CSH change rates and cyclic
//	mcsim exp 5           # Figure 7: coherence (beta x U)
//	mcsim exp 6           # Figure 8: disconnection (D x V)
//	mcsim exp 7           # beyond the paper: unreliable channels
//	mcsim exp 8           # beyond the paper: fleet scaling (clients x cells)
//	mcsim exp 9           # beyond the paper: million-client fleets (SM engine)
//	mcsim exp 10          # beyond the paper: IR broadcast vs cooperative caching
//	mcsim exp 11          # beyond the paper: database size x server buffer
//	mcsim exp table1      # Table 1: parameter settings
//	mcsim exp all         # everything
//
// Add -quick for a reduced-scale pass (shorter horizon, sparser grids).
// Sweeps execute on a worker pool, one independent simulation per CPU by
// default; -parallel N overrides the pool size (-parallel 1 forces the old
// serial behaviour — tables are identical either way).
//
// Run one custom configuration, or scale it out to a multi-cell fleet:
//
//	mcsim run -granularity hc -policy ewma-0.5 -kind NQ -heat csh \
//	      -arrival bursty -update 0.3 -beta 1 -days 2
//	mcsim run -clients 1000 -cells 8 -relay 200 -days 0.25
//
// Simulate unreliable channels (deterministic fault injection + client
// retry/backoff; see DESIGN.md §9):
//
//	mcsim run -granularity hc -loss 0.1 -retry 3          # 10% frame loss
//	mcsim run -granularity ac -loss 0.05 -burst 0.2       # plus burst outages
//
// Generate a self-contained run report (docs/OBSERVABILITY.md): manifest,
// Markdown with inline SVG timelines, and a per-query trace. With exp the
// sweep runs first and one representative configuration is re-run
// instrumented; with run the single run itself is instrumented:
//
//	mcsim exp 1 -report out/        # tables + instrumented Exp1 run
//	mcsim run -loss 0.1 -report out/
//
// Any archived report reproduces from its own manifest with one flag, and
// a reproduction can be checked against the recorded table hashes:
//
//	mcsim run -config out/manifest.json
//	mcsim report out/ -verify
//
// Every configuration — flags, a replayed manifest, each run of a sweep —
// passes experiment.Config.Validate before anything is simulated; invalid
// input exits 1 with one "mcsim: ..." line. Anything but a subcommand
// prints the usage and exits 2.
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			cmdRun(os.Args[2:])
			return
		case "exp":
			cmdExp(os.Args[2:])
			return
		case "report":
			cmdReport(os.Args[2:])
			return
		case "help", "-h", "-help", "--help":
			usage()
			return
		}
	}
	usage()
	os.Exit(2)
}

// usage prints the subcommand synopsis (per-subcommand flags: mcsim run -h)
// followed by the experiment catalog, so every help path — usage, exp -h,
// and an unknown id — teaches the same valid set.
func usage() {
	fmt.Fprint(os.Stderr, `usage:
  mcsim run [flags]          run one configuration (mcsim run -h for flags)
  mcsim exp <id> [flags]     regenerate experiments: 1..11, table1, or all
  mcsim report <dir> [-verify]  summarize (and optionally replay) a report

experiments:
`)
	fmt.Fprint(os.Stderr, expCatalogList())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcsim:", err)
	os.Exit(1)
}

func printResult(res experiment.Result) {
	fmt.Printf("config: %s  heat=%s arrivals=%s beta=%g U=%g V=%d D=%gh\n",
		res.Config, res.Config.HeatName(), res.Config.Arrival,
		res.Config.Beta, res.Config.UpdateProb,
		res.Config.DisconnectedClients, res.Config.DisconnectHours)
	a := &res.Account
	fmt.Printf("hit ratio      %6.2f%%\n", 100*res.HitRatio)
	fmt.Printf("response time  %6.3fs\n", res.MeanResponse)
	fmt.Printf("error rate     %6.2f%%\n", 100*res.ErrorRate)
	fmt.Printf("queries        %d (local %d, remote %d)\n",
		res.QueriesIssued, res.QueriesLocal, res.QueriesRemote)
	fmt.Printf("unavailable    %d reads\n", a.Unavailable)
	fmt.Printf("channels       up %.1f%%, down %.1f%% utilized; down wait %.3fs\n",
		100*res.UplinkUtilization, 100*res.DownlinkUtilization, res.DownlinkMeanWait)
	fmt.Printf("server         %d queries, %d disk reads, buffer hit %.1f%%, %d updates\n",
		res.Server.QueriesServed, res.Server.DiskReads,
		100*res.Server.BufferHitRatio, res.Server.UpdatesApplied)
	if t := res.StorageTier; t.DSN != "" {
		fmt.Printf("storage tier   %s: %d gets, %d puts, %d errors; %d keys, %d bytes on disk\n",
			t.DSN, t.Gets, t.Puts, t.Errors, t.Keys, t.DiskBytes)
		fmt.Printf("tier latency   get p50/p99 %.3g/%.3g ms, put p50/p99 %.3g/%.3g ms (measured)\n",
			t.GetP50ms, t.GetP99ms, t.PutP50ms, t.PutP99ms)
	}
	if res.Config.Cells > 1 {
		fmt.Printf("fleet          %d cells; backbone %.2f MB in %d messages\n",
			res.Config.Cells, float64(res.BackboneBytes)/1e6, res.BackboneMessages)
		if probes := res.RelayHits + res.RelayMisses; probes > 0 {
			fmt.Printf("relay cache    %d hits, %d misses (%d relayed reads)\n",
				res.RelayHits, res.RelayMisses, res.RelayedReads)
		}
	}
	fmt.Printf("radio energy   %.3f J/query\n", a.EnergyPerQuery())
	if a.Air > 0 {
		fmt.Printf("air reads      %d (broadcast channel)\n", a.Air)
	}
	if shed := a.Events[metrics.ShedItem]; shed > 0 {
		fmt.Printf("shed items     %d (timeout heuristic)\n", shed)
	}
	if res.IRReports > 0 {
		fmt.Printf("IR broadcast   %d reports (%.2f MB on air), %d missed, %d forced revalidations\n",
			res.IRReports, float64(res.IRReportBytes)/1e6, a.Events[metrics.IRMiss], res.ForcedRevals)
	}
	if res.PeerHits+res.PeerMisses > 0 {
		fmt.Printf("cooperation    %d peer-served reads, %d fell through to the server\n",
			res.PeerHits, res.PeerMisses)
	}
	if res.FramesLost > 0 || res.FramesCorrupted > 0 || res.Retries > 0 {
		fmt.Printf("channel faults %d frames lost, %d corrupted\n",
			res.FramesLost, res.FramesCorrupted)
		fmt.Printf("reliability    %d retries, %d timeouts, %d degraded reads; access errors %.2f%%\n",
			res.Retries, a.Events[metrics.Timeout], res.DegradedReads, 100*a.AccessErrorRate())
	}
}

// printThroughput reports wall-clock event throughput. It prints after the
// deterministic result block: Result.Events is reproducible, the wall time
// is environment fact, and only their ratio mixes the two.
func printThroughput(events uint64, wall time.Duration) {
	s := wall.Seconds()
	if events == 0 || s <= 0 {
		return
	}
	fmt.Printf("throughput     %d events in %.1fs wall (%.3g events/s)\n",
		events, s, float64(events)/s)
}

// expJob is one titled, table-producing sweep of an experiment.
type expJob struct {
	title string
	run   func(experiment.Config) *experiment.Report
}

// experiments is the catalog, in `exp all` order: what each id is, the
// sweeps it prints at full scale and under -quick (nil = the full grid
// serves both), and whether the grids carry their own default horizon —
// the others are cut to one simulated day by -quick.
var experiments = []struct {
	key, summary string
	full, quick  []expJob
	ownsHorizon  bool
}{
	{key: "table1", summary: "Table 1: parameter settings",
		full: []expJob{{"Table 1", func(experiment.Config) *experiment.Report {
			return &experiment.Report{Name: "table1", Tables: []*experiment.Table{experiment.Table1()}}
		}}}},
	{key: "1", summary: "Figure 2: caching granularity (NC/AC/OC/HC)",
		full: []expJob{{"Experiment #1 (Figure 2)", experiment.Exp1}}},
	{key: "2", summary: "Figure 3: replacement policies, best case",
		full: []expJob{{"Experiment #2 (Figure 3)", experiment.Exp2}}},
	{key: "3", summary: "Figure 4: replacement policies, realistic workloads",
		full: []expJob{{"Experiment #3 (Figure 4)", experiment.Exp3}}},
	{key: "4", summary: "Figures 5+6: CSH change rates and cyclic access",
		full: []expJob{
			{"Experiment #4 (Figure 5)", experiment.Exp4},
			{"Experiment #4 (Figure 6)", experiment.Exp4Cyclic}}},
	{key: "5", summary: "Figure 7: coherence (beta x U)",
		full: []expJob{{"Experiment #5 (Figure 7)", experiment.Exp5}}},
	{key: "6", summary: "Figure 8: disconnected operation (D x V)",
		full:  []expJob{{"Experiment #6 (Figure 8)", experiment.Exp6}},
		quick: []expJob{{"Experiment #6 (Figure 8, quick grid)", experiment.Exp6Quick}}},
	{key: "7", summary: "beyond the paper: unreliable channels (loss x burst x coherence)",
		full:  []expJob{{"Experiment #7 (unreliable channels)", experiment.Exp7}},
		quick: []expJob{{"Experiment #7 (unreliable channels, quick grid)", experiment.Exp7Quick}}},
	{key: "8", summary: "beyond the paper: fleet scaling (clients x cells x relay cache)",
		full:        []expJob{{"Experiment #8 (fleet scaling)", experiment.Exp8}},
		quick:       []expJob{{"Experiment #8 (fleet scaling, quick grid)", experiment.Exp8Quick}},
		ownsHorizon: true},
	{key: "9", summary: "beyond the paper: million-client fleets on the state-machine engine",
		full:        []expJob{{"Experiment #9 (million-client fleets)", experiment.Exp9}},
		quick:       []expJob{{"Experiment #9 (million-client fleets, quick grid)", experiment.Exp9Quick}},
		ownsHorizon: true},
	{key: "10", summary: "beyond the paper: IR broadcast vs cooperative caching (loss x fleet)",
		full:        []expJob{{"Experiment #10 (coherence schemes head-to-head)", experiment.Exp10}},
		quick:       []expJob{{"Experiment #10 (coherence schemes, quick grid)", experiment.Exp10Quick}},
		ownsHorizon: true},
	{key: "11", summary: "beyond the paper: database size x server buffer (persistent tier)",
		full:        []expJob{{"Experiment #11 (size x buffer, persistent tier)", experiment.Exp11}},
		quick:       []expJob{{"Experiment #11 (size x buffer, quick grid)", experiment.Exp11Quick}},
		ownsHorizon: true},
}

// expCatalogList renders the catalog one experiment per line, the shared
// body of usage(), exp -h, and the unknown-experiment error.
func expCatalogList() string {
	var b strings.Builder
	for _, e := range experiments {
		fmt.Fprintf(&b, "  %-6s  %s\n", e.key, e.summary)
	}
	fmt.Fprintf(&b, "  %-6s  %s\n", "all", "every experiment above")
	return b.String()
}

// runExperiments regenerates the requested experiment(s). With a non-empty
// reportDir, the first experiment's first configuration is re-run
// instrumented after the sweep and the report artifacts are written there.
func runExperiments(which string, base experiment.Config, quick bool, reportDir string) error {
	_, err := runExperimentsRep(which, base, quick, reportDir)
	return err
}

// runExperimentsRep is runExperiments returning the first table-producing
// report, which manifest replays hash-check against the archived digests.
// Every sweep validates all of its configs (base plus grid) before its
// first run, and the first failure — named by run label — comes back with
// no table printed.
func runExperimentsRep(which string, base experiment.Config, quick bool,
	reportDir string) (*experiment.Report, error) {

	var firstRep *experiment.Report
	known := false
	for _, e := range experiments {
		if which != "all" && which != e.key {
			continue
		}
		known = true
		jobs, b := e.full, base
		if quick && e.quick != nil {
			jobs = e.quick
		}
		if quick && b.Days == 0 && !e.ownsHorizon {
			b.Days = 1
		}
		for _, j := range jobs {
			start := time.Now()
			fmt.Printf("=== %s ===\n", j.title)
			rep := j.run(b)
			if rep.Err != nil {
				return nil, fmt.Errorf("%s: %w", j.title, rep.Err)
			}
			fmt.Println(rep)
			wall := time.Since(start).Seconds()
			var events uint64
			for _, res := range rep.Results {
				events += res.Events
			}
			if events > 0 && wall > 0 {
				fmt.Printf("(%s in %.1fs, %.3g events/s)\n\n", j.title, wall, float64(events)/wall)
			} else {
				fmt.Printf("(%s in %.1fs)\n\n", j.title, wall)
			}
			if firstRep == nil && len(rep.Results) > 0 {
				firstRep = rep
			}
		}
	}
	if !known {
		return nil, fmt.Errorf("unknown experiment %q (want 1..11, table1, all); valid experiments:\n%s",
			which, strings.TrimRight(expCatalogList(), "\n"))
	}
	if reportDir != "" {
		if firstRep == nil {
			return nil, fmt.Errorf("-report needs a simulation to instrument (table1 runs none)")
		}
		cfg := firstRep.Results[0].Config
		// The literal "<dir>" keeps report bytes independent of where the
		// artifacts landed: same seed, same bytes, any output directory.
		command := fmt.Sprintf("mcsim exp %s -seed %d", which, base.Seed)
		if quick {
			command += " -quick"
		}
		command += " -report <dir>"
		if _, err := instrumentedReport(reportDir, "exp"+which, command, firstRep, cfg, quick); err != nil {
			return firstRep, err
		}
		fmt.Printf("report: instrumented %s re-run written to %s\n", cfg, reportDir)
	}
	return firstRep, nil
}

// runCommand renders the reproduce command for a run report. The manifest
// config is the authoritative parameter record; the command names the
// flags a rerun usually needs. "<dir>" stands in for the output directory
// so report bytes never depend on where the artifacts landed.
func runCommand(cfg experiment.Config) string {
	return fmt.Sprintf("mcsim run -granularity %s -policy %s -seed %d -report <dir> (full parameters: manifest config)",
		cfg.Granularity, cfg.Policy, cfg.Seed)
}

// instrumentedReport runs cfg with an obs registry and a trace collector
// attached and writes manifest.json, report.md and trace.csv into dir.
// rep (optional) supplies the sweep tables the report embeds and hashes;
// quick is recorded in the manifest so replays regenerate the same grids.
func instrumentedReport(dir, expName, command string, rep *experiment.Report,
	cfg experiment.Config, quick bool) (experiment.Result, error) {

	col := &trace.Collector{}
	cfg.Tracer = col
	cfg.Obs = obs.New(0)
	start := time.Now()
	res := experiment.Run(cfg)
	man := report.NewManifest(expName, command, res.Config, rep, cfg.Obs)
	man.Quick = quick
	man.WallSeconds = time.Since(start).Seconds()
	err := report.Write(dir, report.Input{
		Manifest: man,
		Rep:      rep,
		Result:   res,
		Reg:      cfg.Obs,
		Trace:    col,
	})
	return res, err
}
