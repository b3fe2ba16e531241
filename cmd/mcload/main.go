// Command mcload replays simulator workloads against a live mccached over
// real sockets — the load-generator half of the live serving twin
// (docs/SERVING.md). It derives the exact per-client query streams the
// simulator would run (same seeds, same heat distributions, same arrival
// schedules), paces them under time compression, and measures live
// hit/stale/error ratios that can be diffed against the simulated tables.
//
// Replay two simulated days at 600x compression (about 4.8 real minutes):
//
//	mcload -url http://127.0.0.1:7070 -days 2 -clients 10 -update 0.1
//
// A quick smoke replay, with a report directory and an in-process
// simulator run of the identical config for comparison:
//
//	mcload -url http://127.0.0.1:7070 -quick -compare -report out/
//
// The report directory receives the same manifest.json / report.md pair
// mcsim writes (flagged "live" in the manifest); -compare appends a
// sim-vs-live diff table to stdout. The service must have been booted with
// the same -seed, -objects, -granularity, -policy, -beta and -lease values
// (see docs/SERVING.md for the validation workflow).
//
// An optional leading "load" subcommand is accepted (mcload load -url ...),
// mirroring mcsim's subcommand surface.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/workload"
)

// loadOpts holds the load-generator flags that are not Config fields, and
// the enum spellings until parse reads them. Every workload flag binds
// straight onto the experiment.Config it describes, a surface that mirrors
// mcsim run so a config can be stated identically on both sides of a diff.
type loadOpts struct {
	url     string
	speedup float64
	quick   bool

	granularity, kind, heat, arrival string

	compare   bool
	reportDir string
	sample    float64
}

// register declares the flags on fs, binding the workload flags to cfg.
func (o *loadOpts) register(fs *flag.FlagSet, cfg *experiment.Config) {
	fs.StringVar(&o.url, "url", "http://127.0.0.1:7070", "base URL of the running mccached")
	fs.Float64Var(&o.speedup, "speedup", serve.DefaultSpeedup, "time compression: virtual seconds per real second")
	fs.BoolVar(&o.quick, "quick", false, "short smoke replay (0.06 days, 4 clients, ~4s of wall time)")

	fs.Float64Var(&cfg.Days, "days", 0, "virtual days to replay (0 = default 4)")
	fs.Float64Var(&cfg.WarmupDays, "warmup", 0, "virtual days of warm-up excluded from ratios")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "root random seed (must match the service's -seed)")
	fs.IntVar(&cfg.NumClients, "clients", 0, "number of replayed clients (0 = default 10)")
	fs.IntVar(&cfg.NumObjects, "objects", 0, "database objects (0 = default 2000; must match the service)")

	fs.StringVar(&o.granularity, "granularity", "ac", "caching granularity: ac|oc (must match the service)")
	fs.StringVar(&cfg.Policy, "policy", "ewma-0.5", "replacement policy (for -compare and the report)")
	fs.StringVar(&o.kind, "kind", "AQ", "query kind: AQ|NQ")
	fs.StringVar(&o.heat, "heat", "sh", "heat pattern: sh|csh|cyclic")
	fs.StringVar(&o.arrival, "arrival", "poisson", "arrival pattern: poisson|bursty")
	fs.Float64Var(&cfg.UpdateProb, "update", 0.1, "update probability U")
	fs.Float64Var(&cfg.Beta, "beta", 0, "coherence staleness tolerance beta (for -compare)")
	fs.Float64Var(&cfg.FixedLease, "lease", 0, "fixed lease in seconds (selects fixed-lease coherence, like the service's -lease)")

	fs.BoolVar(&o.compare, "compare", false, "also run the simulator in-process and print a sim-vs-live diff")
	fs.StringVar(&o.reportDir, "report", "", "write manifest.json and report.md into this directory")
	fs.Float64Var(&o.sample, "sample", 0, "sample live gauges every this many virtual seconds (0 = auto with -report)")
}

// parse completes the flag-bound cfg once fs has parsed: the enum
// spellings resolved, -lease selecting fixed-lease coherence, and the
// -quick smoke scale under any scale flag left unset.
func (o *loadOpts) parse(cfg *experiment.Config) (err error) {
	if cfg.Granularity, err = core.ParseGranularity(o.granularity); err != nil {
		return err
	}
	if cfg.QueryKind, err = workload.ParseKind(o.kind); err != nil {
		return err
	}
	if cfg.Heat, err = experiment.ParseHeat(o.heat); err != nil {
		return err
	}
	if cfg.Arrival, err = experiment.ParseArrival(o.arrival); err != nil {
		return err
	}
	if cfg.FixedLease > 0 {
		cfg.Coherence = coherence.FixedLeaseStrategy
	}
	if o.quick {
		if cfg.Days == 0 {
			cfg.Days = 0.06
		}
		if cfg.WarmupDays == 0 {
			cfg.WarmupDays = 0.01
		}
		if cfg.NumClients == 0 {
			cfg.NumClients = 4
		}
		if cfg.NumObjects == 0 {
			cfg.NumObjects = 400
		}
	}
	return nil
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "load" {
		args = args[1:]
	}
	os.Exit(run(args))
}

// run is main minus os.Exit, so tests can drive the flag surface.
func run(args []string) int {
	var o loadOpts
	var cfg experiment.Config
	fs := flag.NewFlagSet("mcload", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mcload [load] [flags]")
		fs.PrintDefaults()
	}
	o.register(fs, &cfg)
	fs.Parse(args)

	reproduce := command(o, cfg) // the flags as given, before -quick fills in
	if err := o.parse(&cfg); err != nil {
		return fail(err)
	}
	cfg = experiment.Defaults(cfg)

	var reg *obs.Registry
	if o.sample > 0 {
		reg = obs.New(o.sample)
	} else if o.reportDir != "" {
		reg = obs.New(0) // Attach derives an interval from the horizon
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "mcload: replaying %s days x %d clients against %s at %gx\n",
		fnum(cfg.Days), cfg.NumClients, o.url, o.speedup)
	live, err := serve.Replay(ctx, serve.ReplayConfig{
		BaseURL: o.url,
		Config:  cfg,
		Speedup: o.speedup,
		Reg:     reg,
	})
	if err != nil {
		return fail(err)
	}
	printLive(live)

	if o.compare {
		sim := experiment.Run(cfg)
		printDiff(sim, live)
	}

	if o.reportDir != "" {
		m := report.NewManifest("live", reproduce, cfg, nil, reg)
		m.Live = true
		m.WallSeconds = live.WallSeconds
		if err := report.Write(o.reportDir, report.Input{
			Manifest: m,
			Result:   live.Result(),
			Reg:      reg,
		}); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "mcload: report written to %s\n", o.reportDir)
	}
	return 0
}

// command reconstructs a reproduce command for the manifest from the
// parsed flags.
func command(o loadOpts, cfg experiment.Config) string {
	var b strings.Builder
	b.WriteString("mcload -url " + o.url)
	fmt.Fprintf(&b, " -seed %d -speedup %g", cfg.Seed, o.speedup)
	if o.quick {
		b.WriteString(" -quick")
	}
	if cfg.Days > 0 {
		fmt.Fprintf(&b, " -days %g", cfg.Days)
	}
	if cfg.NumClients > 0 {
		fmt.Fprintf(&b, " -clients %d", cfg.NumClients)
	}
	fmt.Fprintf(&b, " -granularity %s -update %g", o.granularity, cfg.UpdateProb)
	return b.String()
}

// printLive renders the replay measurements like mcsim's printResult.
func printLive(lr serve.LiveResult) {
	fmt.Printf("live replay    %s days at %gx (%.1fs wall, max lag %.1f virtual s)\n",
		fnum(lr.Config.Days), lr.Speedup, lr.WallSeconds, lr.MaxLagVirtual)
	a := &lr.Account
	fmt.Printf("hit ratio      %6.2f%%\n", 100*a.HitRatio())
	fmt.Printf("stale rate     %6.2f%%\n", 100*lr.StaleRate)
	fmt.Printf("error rate     %6.2f%%\n", 100*a.ErrorRate())
	fmt.Printf("mean RT        %.4fs wall per query\n", a.MeanResponse())
	fmt.Printf("queries        %d (local %d, remote %d)\n", a.Queries, a.Local, a.Remote)
	fmt.Printf("reads          %d (%d hits, %d stale, %d errors)\n", a.Total(), a.Hits, lr.Stales, a.Errors)
	fmt.Printf("updates        %d events over %d HTTP calls\n", lr.Writes, lr.HTTPCalls)
	if lr.Backend != "" {
		fmt.Printf("backend        %s (%s", lr.Backend, lr.BackendDSN)
		if lr.DiskBytes > 0 {
			fmt.Printf(", %d bytes on disk", lr.DiskBytes)
		}
		fmt.Printf(")\n")
	}
}

// printDiff renders the sim-vs-live comparison table.
func printDiff(sim experiment.Result, live serve.LiveResult) {
	fmt.Printf("\nsim vs live (same seed, same workload draws)\n")
	fmt.Printf("%-14s %10s %10s %10s\n", "metric", "simulated", "live", "diff")
	row := func(name string, s, l float64) {
		fmt.Printf("%-14s %10.4f %10.4f %+10.4f\n", name, s, l, l-s)
	}
	sa, la := &sim.Account, &live.Account
	row("hit ratio", sa.HitRatio(), la.HitRatio())
	row("error rate", sa.ErrorRate(), la.ErrorRate())
	fmt.Printf("%-14s %10d %10d %+10d\n", "queries", sa.Queries, la.Queries,
		int64(la.Queries)-int64(sa.Queries))
	fmt.Printf("%-14s %10.4f %10.4f      (n/a)\n", "mean RT s", sa.MeanResponse(), la.MeanResponse())
	fmt.Printf("note: simulated RT is channel-bound virtual time; live RT is wall-clock HTTP time.\n")
}

func fnum(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v), "0"), ".")
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "mcload:", err)
	return 1
}
