// Command mccached serves the paper's client-cache machinery as a live
// HTTP/JSON cache service: per-client cache sessions (storage cache +
// memory buffer, pluggable replacement) over an in-process origin database
// with adaptive-lease coherence judged on the wall clock.
//
// Boot a service and exercise it by hand:
//
//	mccached -addr 127.0.0.1:7070 -granularity ac -policy ewma-0.5 &
//	curl -s -X POST localhost:7070/v1/read \
//	     -d '{"client":0,"oid":5,"attr":2}' | jq
//	curl -s localhost:7070/v1/stats | jq
//
// Or let the kernel pick a port and learn it from a file (scripts do
// this; see scripts/livesmoke.sh):
//
//	mccached -addr 127.0.0.1:0 -addr-file /tmp/mccached.addr &
//
// The endpoint catalog — read/fetch/write/invalidate/renew/lease/stats —
// is documented in docs/SERVING.md, together with the load-generator twin
// (cmd/mcload) that replays simulator workloads against a running service.
// SIGINT/SIGTERM drain in-flight requests before exit and dump a final
// stats snapshot to stderr.
//
// An optional leading "serve" subcommand is accepted (mccached serve
// -addr ...), mirroring mcsim's subcommand surface.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serveOpts holds the service flags that are not serve.Config fields: the
// listener, the backend, observability and timeouts, plus the granularity
// spelling and the root seed the origin's RelSeed derives from.
type serveOpts struct {
	addr     string
	addrFile string
	backend  string

	seed        uint64
	granularity string

	sample       float64
	opTimeout    time.Duration
	adminTimeout time.Duration
	drain        time.Duration
}

// register declares the flags on fs, binding the store flags to cfg.
func (o *serveOpts) register(fs *flag.FlagSet, cfg *serve.Config) {
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7070", "listen address (port 0 picks a free one)")
	fs.StringVar(&o.addrFile, "addr-file", "", "write the bound address to this file once listening")
	fs.StringVar(&o.backend, "backend", "memory",
		"store backend DSN: memory, or file:/path/cache.db?sync=group|always|none (persistent, recovers on restart)")

	fs.Uint64Var(&o.seed, "seed", 1, "root seed; derives the origin's relationship topology like mcsim")
	fs.IntVar(&cfg.NumObjects, "objects", 0, "database objects (0 = default 2000)")
	fs.StringVar(&o.granularity, "granularity", "ac", "caching granularity: ac|oc")
	fs.StringVar(&cfg.Policy, "policy", "ewma-0.5", "replacement policy spec per session")
	fs.IntVar(&cfg.StorageObjects, "storage", 0, "per-session storage cache in objects (0 = 20% of database)")
	fs.IntVar(&cfg.MemBufferObjects, "membuf", 0, "per-session memory buffer in objects (0 = default 30)")
	fs.Float64Var(&cfg.Beta, "beta", 0, "lease slack beta in RT = mean + beta*stddev")
	fs.Float64Var(&cfg.FixedLease, "lease", 0, "fixed lease duration in seconds (0 = adaptive leases)")

	fs.Float64Var(&o.sample, "sample", 0, "sample serve.* gauges every this many seconds (0 = off)")
	fs.DurationVar(&o.opTimeout, "op-timeout", serve.DefaultOpTimeout, "per-request timeout for cache operations")
	fs.DurationVar(&o.adminTimeout, "admin-timeout", serve.DefaultAdminTimeout, "per-request timeout for stats/lease inspection")
	fs.DurationVar(&o.drain, "drain", serve.DefaultDrainTimeout, "graceful-shutdown drain window")
}

// parse completes the flag-bound cfg once fs has parsed. The origin is
// seeded through the same derivation mcsim uses, so a service booted with
// -seed N agrees with `mcload -seed N` on the database topology. A negative
// timeout is refused: it would time out every request on arrival.
func (o *serveOpts) parse(cfg *serve.Config) (err error) {
	for _, d := range []struct {
		flag string
		v    time.Duration
	}{{"op-timeout", o.opTimeout}, {"admin-timeout", o.adminTimeout}, {"drain", o.drain}} {
		if d.v < 0 {
			return fmt.Errorf("-%s %v is negative", d.flag, d.v)
		}
	}
	cfg.RelSeed = experiment.RelSeed(o.seed)
	cfg.Granularity, err = core.ParseGranularity(o.granularity)
	return err
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "serve" {
		args = args[1:]
	}
	os.Exit(run(args))
}

// run is main minus os.Exit, so tests can drive the full boot path.
func run(args []string) int {
	var o serveOpts
	var cfg serve.Config
	fs := flag.NewFlagSet("mccached", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mccached [serve] [flags]")
		fs.PrintDefaults()
	}
	o.register(fs, &cfg)
	fs.Parse(args)

	if err := o.parse(&cfg); err != nil {
		return fail(err)
	}
	st, err := serve.Open(o.backend, cfg)
	if err != nil {
		return fail(err)
	}

	var reg *obs.Registry
	if o.sample > 0 {
		reg = obs.New(o.sample)
		st.Register(reg)
	}
	svc := serve.NewService(o.addr, serve.NewHandler(st, serve.HTTPConfig{
		OpTimeout:    o.opTimeout,
		AdminTimeout: o.adminTimeout,
		Reg:          reg,
	}))
	addr, err := svc.Listen()
	if err != nil {
		return fail(err)
	}
	if o.addrFile != "" {
		if err := os.WriteFile(o.addrFile, []byte(addr+"\n"), 0o644); err != nil {
			return fail(err)
		}
	}
	ticker := serve.AttachWallClock(reg, 1, serve.InfiniteHorizon)
	fmt.Fprintf(os.Stderr, "mccached: serving %s granularity=%s policy=%s on http://%s\n",
		st.Stats().Backend, cfg.Granularity, cfg.Policy, addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- svc.Serve() }()

	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "mccached: %v, draining for up to %s\n", s, o.drain)
		if err := svc.Shutdown(o.drain); err != nil {
			fmt.Fprintln(os.Stderr, "mccached: shutdown:", err)
		}
		<-done
	case err := <-done:
		if err != nil {
			return fail(err)
		}
	}
	ticker.Stop()

	snapshot, _ := json.MarshalIndent(st.Stats(), "", "  ")
	fmt.Fprintf(os.Stderr, "mccached: final stats\n%s\n", snapshot)
	// Persistent backends flush their log on close so a clean shutdown
	// leaves no torn tail to truncate at the next boot.
	if c, ok := st.(io.Closer); ok {
		if err := c.Close(); err != nil {
			return fail(err)
		}
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "mccached:", err)
	return 1
}
