// Package report turns an instrumented simulation run — its manifest, the
// obs registry's sampled series, the experiment tables, and an optional
// per-query trace — into two artifacts:
//
//   - manifest.json: everything needed to reproduce the run (full config,
//     seed, git revision, go version, wall time, peak RSS, SHA-256 hashes
//     of the rendered tables, the reproduce command).
//   - report.md: a self-contained Markdown report with paper-figure-style
//     tables and inline SVG timelines (channel utilization, hit-ratio
//     convergence over warm-up, cache occupancy and eviction rate, error
//     rate against frame loss, refresh-time quantiles).
//
// The Markdown body is byte-deterministic in (Config, Seed): environment
// facts (wall time, peak RSS, git revision, go version) live only in the
// manifest, series are iterated in registration order, and every float is
// rendered with one fixed format. Rerunning the same seed reproduces report.md
// exactly — the property the golden-file test pins and the manifest's
// "reproduce" command relies on. See docs/OBSERVABILITY.md.
package report

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TableHash pairs a rendered table with its content hash, letting a reader
// of a manifest verify a reproduction without shipping the tables.
type TableHash struct {
	// Title is the table's title line.
	Title string `json:"title"`
	// SHA256 is the hex digest of the table's rendered text.
	SHA256 string `json:"sha256"`
}

// Manifest records how a report was produced. Everything a rerun needs is
// here; the environment facts (git revision, go version, wall time, peak
// RSS) are deliberately kept out of report.md so its bytes stay
// reproducible.
type Manifest struct {
	// Experiment names what ran (e.g. "exp1", "run").
	Experiment string `json:"experiment"`
	// Command reproduces the run from a clean checkout.
	Command string `json:"command"`
	// Quick records that an experiment sweep ran on the reduced -quick
	// grids; a replay (mcsim run -config, mcsim report -verify) needs it to
	// regenerate the same tables. Manifests from before this field default
	// to false; replays fall back to scanning Command for "-quick".
	Quick bool `json:"quick,omitempty"`
	// Live records that the measurements come from a live replay over real
	// sockets (cmd/mcload against a running mccached) rather than the
	// simulator; response times are then wall-clock HTTP service times and
	// are not comparable to simulated channel-bound response times
	// (docs/SERVING.md), and report.md leaves out the channel utilization
	// and server buffer rows, which a replay does not measure.
	Live bool `json:"live,omitempty"`
	// Seed is the root RNG seed of the instrumented run.
	Seed uint64 `json:"seed"`
	// GitRevision is the source revision ("unknown" outside a checkout).
	GitRevision string `json:"git_revision"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// WallSeconds is the real time the run took (not virtual time).
	WallSeconds float64 `json:"wall_seconds"`
	// PeakRSSMB is the process's peak resident set size in MB when the
	// manifest was stamped: VmHWM from /proc/self/status, 0 where that is
	// unavailable. It covers everything the process ran, so a sweep's
	// largest run sets it, not just the instrumented re-run.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Config is the instrumented run's full (defaulted) configuration.
	Config experiment.Config `json:"config"`
	// Tables hashes every rendered experiment table.
	Tables []TableHash `json:"tables"`
	// Series lists every sampled series name (sorted).
	Series []string `json:"series"`
	// Samples is the number of sampler ticks that fired.
	Samples int `json:"samples"`
	// IntervalS is the sampling interval in virtual seconds.
	IntervalS float64 `json:"interval_s"`
	// TraceRows is the number of per-query trace records written (0 when
	// tracing was off).
	TraceRows int `json:"trace_rows"`
}

// GitRevision returns the current checkout's HEAD hash, or "unknown" when
// git (or a repository) is unavailable. Manifest-only: never in report.md.
func GitRevision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB returns the process's peak resident set size in MB (VmHWM), or
// 0 where /proc/self/status does not report it.
func peakRSSMB() float64 {
	raw, _ := os.ReadFile("/proc/self/status") // unreadable off Linux: 0
	var kb float64
	if _, rest, ok := strings.Cut(string(raw), "VmHWM:"); ok {
		_, _ = fmt.Sscanf(rest, "%f kB", &kb) // a malformed line leaves 0
	}
	return kb / 1024
}

// NewManifest assembles a manifest for one instrumented run: environment
// stamped, tables hashed, series listed. WallSeconds is left for the caller
// to fill once the run has finished.
func NewManifest(exp, command string, cfg experiment.Config, rep *experiment.Report, reg *obs.Registry) Manifest {
	m := Manifest{
		Experiment:  exp,
		Command:     command,
		Seed:        cfg.Seed,
		GitRevision: GitRevision(),
		GoVersion:   runtime.Version(),
		PeakRSSMB:   peakRSSMB(),
		Config:      cfg,
		Series:      reg.SeriesNames(),
		Samples:     reg.Samples(),
		IntervalS:   reg.Interval(),
	}
	if rep != nil {
		for _, t := range rep.Tables {
			m.Tables = append(m.Tables, TableHash{
				Title:  t.Title,
				SHA256: fmt.Sprintf("%x", sha256.Sum256([]byte(t.String()))),
			})
		}
	}
	return m
}

// Input bundles everything the generator consumes.
type Input struct {
	// Manifest describes the run (see NewManifest).
	Manifest Manifest
	// Rep holds the experiment's tables and results (optional).
	Rep *experiment.Report
	// Result is the instrumented representative run's measurements.
	Result experiment.Result
	// Reg is the registry the run sampled into.
	Reg *obs.Registry
	// Trace holds the run's per-query records (optional; written as
	// trace.csv and summarized in the report).
	Trace *trace.Collector
}

// Write renders the report into dir: manifest.json, report.md, and (when a
// trace was collected) trace.csv. The directory is created if needed.
func Write(dir string, in Input) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if in.Trace != nil {
		in.Manifest.TraceRows = in.Trace.Len()
		f, err := os.Create(filepath.Join(dir, "trace.csv"))
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		csv := trace.NewCSV(f)
		for _, r := range in.Trace.Records {
			csv.Query(r)
		}
		if err := csv.Flush(); err != nil {
			f.Close()
			return fmt.Errorf("report: trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	mj, err := json.MarshalIndent(in.Manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("report: manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), append(mj, '\n'), 0o644); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "report.md"), Markdown(in), 0o644); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return nil
}

// Markdown renders the deterministic report body. Same (Config, Seed) →
// same bytes: no timestamps, no environment facts, fixed float formats.
func Markdown(in Input) []byte {
	var b strings.Builder
	cfg := in.Manifest.Config

	fmt.Fprintf(&b, "# Run report: %s\n\n", in.Manifest.Experiment)
	fmt.Fprintf(&b, "Reproduce with `%s` (seed %d). Environment details are in `manifest.json`.\n\n",
		in.Manifest.Command, in.Manifest.Seed)
	if in.Manifest.Live {
		b.WriteString("**Live replay:** measurements come from real HTTP round trips against " +
			"a running `mccached`, not the simulator. Response times are wall-clock " +
			"service times (see `docs/SERVING.md`).\n\n")
	}

	b.WriteString("## Instrumented run\n\n")
	b.WriteString("| parameter | value |\n|---|---|\n")
	fmt.Fprintf(&b, "| config | %s |\n", cfg.String())
	fmt.Fprintf(&b, "| granularity | %s |\n", cfg.Granularity)
	fmt.Fprintf(&b, "| policy | %s |\n", cfg.Policy)
	fmt.Fprintf(&b, "| workload | %s / %s / %s |\n", cfg.QueryKind, cfg.HeatName(), cfg.Arrival)
	fmt.Fprintf(&b, "| clients | %d |\n", cfg.NumClients)
	fmt.Fprintf(&b, "| horizon | %s days |\n", fnum(cfg.Days))
	fmt.Fprintf(&b, "| update prob U | %s |\n", fnum(cfg.UpdateProb))
	fmt.Fprintf(&b, "| samples | %d every %s s |\n", in.Manifest.Samples, fnum(in.Manifest.IntervalS))
	b.WriteString("\n")

	b.WriteString("### Headline results\n\n")
	b.WriteString("| metric | value |\n|---|---|\n")
	r := in.Result
	fmt.Fprintf(&b, "| hit ratio | %s |\n", fnum(r.HitRatio))
	fmt.Fprintf(&b, "| mean response | %s s |\n", fnum(r.MeanResponse))
	fmt.Fprintf(&b, "| error rate | %s |\n", fnum(r.ErrorRate))
	fmt.Fprintf(&b, "| queries issued | %d (%d local, %d remote) |\n",
		r.QueriesIssued, r.QueriesLocal, r.QueriesRemote)
	if !in.Manifest.Live { // a live replay measures neither
		fmt.Fprintf(&b, "| uplink / downlink utilization | %s / %s |\n",
			fnum(r.UplinkUtilization), fnum(r.DownlinkUtilization))
		fmt.Fprintf(&b, "| server buffer hit ratio | %s |\n", fnum(r.Server.BufferHitRatio))
	}
	if cfg.Cells > 1 {
		fmt.Fprintf(&b, "| fleet | %d cells, %d clients |\n", cfg.Cells, cfg.NumClients)
		fmt.Fprintf(&b, "| backbone traffic | %s MB in %d messages |\n",
			fnum(float64(r.BackboneBytes)/1e6), r.BackboneMessages)
		if probes := r.RelayHits + r.RelayMisses; probes > 0 {
			fmt.Fprintf(&b, "| relay cache hit ratio | %s (%d relayed reads) |\n",
				fnum(float64(r.RelayHits)/float64(probes)), r.RelayedReads)
		}
	}
	if r.FramesLost+r.FramesCorrupted > 0 {
		fmt.Fprintf(&b, "| frames lost / corrupted | %d / %d |\n", r.FramesLost, r.FramesCorrupted)
		fmt.Fprintf(&b, "| retries / timeouts / degraded reads | %d / %d / %d |\n",
			r.Retries, r.Account.Events[metrics.Timeout], r.DegradedReads)
	}
	if r.IRReports > 0 {
		fmt.Fprintf(&b, "| IR broadcasts | %d reports, %s MB on air |\n",
			r.IRReports, fnum(float64(r.IRReportBytes)/1e6))
		fmt.Fprintf(&b, "| IR missed / forced revalidations | %d / %d |\n",
			r.Account.Events[metrics.IRMiss], r.ForcedRevals)
	}
	if probes := r.PeerHits + r.PeerMisses; probes > 0 {
		fmt.Fprintf(&b, "| peer-served reads | %d of %d cooperative lookups |\n",
			r.PeerHits, probes)
	}
	b.WriteString("\n")

	if in.Rep != nil && len(in.Rep.Tables) > 0 {
		b.WriteString("## Tables\n\n")
		for _, t := range in.Rep.Tables {
			writeMarkdownTable(&b, t)
		}
	}

	// Notes are measured, machine-dependent facts (storage latencies, disk
	// bytes); they ride in the report but are excluded from table hashing.
	if in.Rep != nil && len(in.Rep.Notes) > 0 {
		b.WriteString("## Notes\n\n")
		for _, n := range in.Rep.Notes {
			fmt.Fprintf(&b, "- %s\n", n)
		}
		b.WriteString("\n")
	}

	b.WriteString("## Timelines\n\n")
	writeTimelines(&b, in.Reg)

	if hq := rtQuantileTable(in.Reg); hq != "" {
		b.WriteString("## Refresh-time distribution\n\n")
		b.WriteString(hq)
	}

	if in.Trace != nil && in.Trace.Len() > 0 {
		b.WriteString("## Trace\n\n")
		fmt.Fprintf(&b, "`trace.csv` holds %d per-query records (one row per completed query; the header row names the columns — see internal/trace). Analyze with `go run ./cmd/mctrace trace.csv`.\n\n",
			in.Trace.Len())
	}
	return []byte(b.String())
}

// writeMarkdownTable renders one experiment table as a Markdown pipe table.
func writeMarkdownTable(b *strings.Builder, t *experiment.Table) {
	if t.Title != "" {
		fmt.Fprintf(b, "### %s\n\n", t.Title)
	}
	fmt.Fprintf(b, "| %s |\n", strings.Join(t.Header, " | "))
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(b, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(b, "| %s |\n", strings.Join(row, " | "))
	}
	b.WriteString("\n")
}

// writeTimelines emits the SVG charts, skipping any whose series were not
// registered (e.g. fault charts on perfect channels).
func writeTimelines(b *strings.Builder, reg *obs.Registry) {
	chart := func(caption, title, yLabel string, lines ...chartLine) {
		svg := svgChart(title, yLabel, lines)
		if svg == "" {
			return
		}
		fmt.Fprintf(b, "%s\n\n%s\n\n", caption, svg)
	}

	chart("Windowed busy fraction of the two 19.2 Kbps channels — the contention the paper's response times queue behind.",
		"Channel utilization", "busy fraction per window",
		chartLine{"uplink", windowedUtilization(reg.Series("uplink.utilization"))},
		chartLine{"downlink", windowedUtilization(reg.Series("downlink.utilization"))})

	chart("Pooled client hit ratio and error rate over virtual time: the warm-up convergence the steady-state tables discard.",
		"Hit-ratio convergence", "ratio",
		chartLine{"hit ratio", reg.Series("clients.hit_ratio")},
		chartLine{"error rate", reg.Series("clients.error_rate")})

	chart("Storage-cache occupancy (fraction of pooled capacity) and the fraction of cached items still inside their lease.",
		"Cache occupancy", "fraction",
		chartLine{"occupancy", reg.Series("clients.cache_occupancy")})

	chart("Evictions per second across all clients — the churn the replacement policy sustains once caches fill.",
		"Eviction rate", "evictions/s",
		chartLine{"evictions", windowedRate(reg.Series("clients.evictions"))})

	chart("Frame losses per second against the resulting retries: the reliability layer absorbing channel faults.",
		"Loss and retries", "events/s",
		chartLine{"frames lost (up)", windowedRate(reg.Series("uplink.faults.frames_lost"))},
		chartLine{"frames lost (down)", windowedRate(reg.Series("downlink.faults.frames_lost"))},
		chartLine{"retries", windowedRate(reg.Series("clients.retries"))})

	chart("Coherence traffic beyond leases: reads served from peer caches and whole-cache revalidations forced by missed invalidation reports.",
		"Cooperative and broadcast-IR activity", "events/s",
		chartLine{"peer hits", windowedRate(reg.Series("clients.peer_hits"))},
		chartLine{"forced revalidations", windowedRate(reg.Series("clients.forced_reval"))})

	chart("Quantiles of the refresh-time estimates the server ships (RT = d-bar + beta*s, §3.2).",
		"Refresh-time quantiles", "seconds",
		chartLine{"p50", reg.Series("server.rt_p50")},
		chartLine{"p90", reg.Series("server.rt_p90")})

	chart("Server-side load: disk utilization and buffer hit ratio.",
		"Server load", "ratio",
		chartLine{"disk utilization", reg.Series("server.disk_utilization")},
		chartLine{"buffer hit ratio", reg.Series("server.buffer_hit_ratio")})
}

// rtQuantileTable renders the shipped refresh-time distribution, or "" when
// the histogram is absent or empty.
func rtQuantileTable(reg *obs.Registry) string {
	var rt *obs.Histogram
	for _, h := range reg.Histograms() {
		if h.HistogramName() == "server.refresh_time_s" {
			rt = h
		}
	}
	if rt.Count() == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("| statistic | seconds |\n|---|---|\n")
	fmt.Fprintf(&b, "| count | %d |\n", rt.Count())
	fmt.Fprintf(&b, "| mean | %s |\n", fnum(rt.Mean()))
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		fmt.Fprintf(&b, "| p%g | %s |\n", q*100, fnum(rt.Quantile(q)))
	}
	b.WriteString("\n")
	return b.String()
}

// windowedUtilization converts a sampled cumulative busy fraction u(t) into
// per-window busy fractions: (u_i t_i − u_{i−1} t_{i−1}) / (t_i − t_{i−1}).
// Returns nil when the series is missing or has fewer than two samples.
func windowedUtilization(s *obs.Series) *obs.Series {
	if s == nil || len(s.T) < 2 {
		return nil
	}
	out := &obs.Series{Name: s.Name + ".windowed"}
	for i := 1; i < len(s.T); i++ {
		dt := s.T[i] - s.T[i-1]
		if dt <= 0 {
			continue
		}
		busy := (s.V[i]*s.T[i] - s.V[i-1]*s.T[i-1]) / dt
		out.T = append(out.T, s.T[i])
		out.V = append(out.V, clamp01(busy))
	}
	return out
}

// windowedRate differences a sampled cumulative counter into a per-second
// rate. Returns nil when the series is missing or too short.
func windowedRate(s *obs.Series) *obs.Series {
	if s == nil || len(s.T) < 2 {
		return nil
	}
	out := &obs.Series{Name: s.Name + ".rate"}
	for i := 1; i < len(s.T); i++ {
		dt := s.T[i] - s.T[i-1]
		if dt <= 0 {
			continue
		}
		out.T = append(out.T, s.T[i])
		out.V = append(out.V, (s.V[i]-s.V[i-1])/dt)
	}
	return out
}

// clamp01 bounds accumulated floating-point error in windowed utilization.
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
