// replay.go is the load-generator engine behind cmd/mcload: it replays an
// experiment.Config workload — the exact per-client RNG substreams,
// hot/cold heat distributions, and arrival schedules the simulator would
// run — over real sockets against a live mccached, under time compression,
// and measures the same hit/stale/error ratios the simulator reports. The
// request flow per query is the simulated client's: probe every read,
// apply the update model only if the query goes remote, then fetch the
// needed items fresh (docs/SERVING.md says which steps are shared code).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/workload"
)

// DefaultSpeedup is the default time-compression factor: virtual seconds
// replayed per real second. Lease dynamics are scale-invariant under
// compression — write inter-arrivals and access gaps shrink by the same
// factor, so the valid-at-access relation is preserved — as long as HTTP
// round trips stay well under the compressed arrival gaps.
const DefaultSpeedup = 600

// ValidateLive reports whether cfg describes a workload the live layer can
// replay faithfully: a single always-connected cell on perfect channels,
// lease (or fixed-lease) coherence, and a durable cache granularity.
// Everything else — broadcast schemes, cooperative caching, disconnection,
// channel faults — needs simulator machinery with no live counterpart yet.
func ValidateLive(cfg experiment.Config) error {
	switch cfg.Granularity {
	case core.AttributeCaching, core.ObjectCaching:
	default:
		return fmt.Errorf("%w: live replay supports granularity ac|oc", ErrUnsupported)
	}
	switch cfg.Coherence {
	case coherence.LeaseStrategy, coherence.FixedLeaseStrategy:
	default:
		return fmt.Errorf("%w: live replay supports -coherence lease|fixed", ErrUnsupported)
	}
	if cfg.Cells > 1 {
		return fmt.Errorf("%w: live replay is single-cell", ErrUnsupported)
	}
	if cfg.DisconnectedClients > 0 {
		return fmt.Errorf("%w: live replay has no disconnection windows", ErrUnsupported)
	}
	if cfg.LossRate != 0 || cfg.CorruptRate != 0 || cfg.BurstFraction != 0 {
		return fmt.Errorf("%w: live replay runs on real sockets, not the fault models", ErrUnsupported)
	}
	if cfg.CoopPeers > 0 || cfg.BroadcastAttrs > 0 || cfg.ShedThreshold > 0 {
		return fmt.Errorf("%w: cooperative/broadcast/shedding have no live counterpart", ErrUnsupported)
	}
	if cfg.NumObjects > oodb.MaxIndexedObjects {
		return fmt.Errorf("%w: %d objects, more than the %d a session's item index numbers",
			experiment.ErrOutOfRange, cfg.NumObjects, oodb.MaxIndexedObjects)
	}
	return nil
}

// ReplayConfig parameterizes one live replay.
type ReplayConfig struct {
	// BaseURL is the running mccached, e.g. "http://127.0.0.1:7070".
	BaseURL string
	// Config is the scenario to replay (defaulted internally; must pass
	// ValidateLive).
	Config experiment.Config
	// Speedup is the time-compression factor in virtual seconds per real
	// second (DefaultSpeedup when zero).
	Speedup float64
	// Reg, when enabled, samples live clients.hit_ratio /
	// clients.error_rate series on the compressed virtual timeline, so
	// report charts align with the simulator's.
	Reg *obs.Registry
}

// LiveResult carries the measurements of one replay. Ratios are computed
// after the warm-up cutoff, like the simulator's Result.
type LiveResult struct {
	// Config is the defaulted scenario that was replayed.
	Config experiment.Config
	// Speedup echoes the compression factor used.
	Speedup float64
	// WallSeconds is the real time the replay took.
	WallSeconds float64

	// Account is the clients' accounts pooled in client order, each behind
	// the warm-up gate: reads by outcome, queries local and remote. Its
	// response times are wall-clock HTTP service times per query, in real
	// seconds (probe + write + fetch round trips; excludes pacing waits),
	// not comparable in magnitude to the simulator's channel-bound ones —
	// see docs/SERVING.md.
	Account metrics.Account

	// Stales counts post-warmup probes that found an expired resident
	// copy (all refetched — the live layer is always connected, so these
	// are Fetched reads, not Account.Stale); StaleRate is their share of
	// the reads.
	Stales    uint64
	StaleRate float64
	// Writes counts update events applied (post-warmup).
	Writes uint64
	// HTTPCalls counts requests issued (whole run, warm-up included).
	HTTPCalls uint64
	// MaxLagVirtual is the worst scheduling lag in virtual seconds: how
	// far behind its arrival schedule a client fell (HTTP latency and GC
	// both show up here). Large lags distort lease dynamics; keep the
	// speedup low enough that this stays small against arrival gaps.
	MaxLagVirtual float64

	// Backend / BackendDSN / DiskBytes identify the tier that served the
	// run, snapshotted from GET /v1/stats after the replay: livesmoke and
	// -compare artifacts assert against these when exercising the
	// persistent backend.
	Backend    string
	BackendDSN string
	DiskBytes  int64
}

// Result converts the live measurements into the simulator's Result shape,
// so report.Write renders the same headline tables for both sides of a
// sim-vs-live diff.
func (lr LiveResult) Result() experiment.Result {
	return experiment.AccountResult(lr.Config, lr.Account)
}

// liveReads is the replay's shared read account the obs gauges read:
// every client's reads, on the clients' warm-up window.
type liveReads struct {
	mu sync.Mutex
	m  metrics.Client
}

// Replay runs the workload against a live service and blocks until the
// horizon (or ctx) is reached. One goroutine per client; each paces its
// arrival schedule at Speedup and replays its queries in order.
func Replay(ctx context.Context, rc ReplayConfig) (LiveResult, error) {
	cfg := experiment.Defaults(rc.Config)
	if err := ValidateLive(cfg); err != nil {
		return LiveResult{}, err
	}
	if rc.BaseURL == "" {
		return LiveResult{}, fmt.Errorf("%w: replay needs a base URL", ErrBadRequest)
	}
	speedup := rc.Speedup
	if speedup <= 0 {
		speedup = DefaultSpeedup
	}
	// Per-client keep-alive connections.
	httpc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.NumClients + 2,
		MaxIdleConnsPerHost: cfg.NumClients + 2,
	}}
	// The ratios are the workload's own only on a store that starts empty:
	// sessions, versions and write histories left by an earlier run carry
	// over into them.
	st, err := fetchStats(httpc, rc.BaseURL)
	if err != nil {
		return LiveResult{}, err
	}
	if st.Sessions != 0 || st.Reads != 0 || st.Writes != 0 || st.Fetches != 0 {
		return LiveResult{}, fmt.Errorf("serve: %s already holds state (sessions %d, reads %d, writes %d, fetches %d); replay against a freshly started server",
			rc.BaseURL, st.Sessions, st.Reads, st.Writes, st.Fetches)
	}

	db := experiment.NewDatabase(cfg)
	horizon := cfg.Horizon()
	warmup := cfg.WarmupDays * workload.SecondsPerDay

	live := &liveReads{m: metrics.Client{Warmup: warmup}}
	var httpCalls uint64
	if rc.Reg.Enabled() {
		figure := func(f func(r *metrics.ReadCounts) float64) func() float64 {
			return func() float64 {
				live.mu.Lock()
				defer live.mu.Unlock()
				return f(&live.m.ReadCounts)
			}
		}
		rc.Reg.Gauge("clients.hit_ratio", figure((*metrics.ReadCounts).HitRatio))
		rc.Reg.Gauge("clients.error_rate", figure((*metrics.ReadCounts).ErrorRate))
		rc.Reg.Gauge("clients.accesses", figure(func(r *metrics.ReadCounts) float64 { return float64(r.Total()) }))
	}
	ticker := AttachWallClock(rc.Reg, speedup, horizon)
	defer ticker.Stop()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	outcomes := make([]clientOutcome, cfg.NumClients)
	start := time.Now()

	var wg sync.WaitGroup
	for i := 0; i < cfg.NumClients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			out := &outcomes[id]
			out.m = metrics.Client{Warmup: warmup}
			out.err = replayClient(ctx, replayEnv{
				cfg: cfg, db: db, id: id,
				baseURL: rc.BaseURL, httpc: httpc,
				speedup: speedup, horizon: horizon, warmup: warmup,
				start: start, live: live, httpCalls: &httpCalls,
				group: new(workload.Grouping),
			}, out)
			if out.err != nil {
				cancel() // one failing client aborts the replay
			}
		}(i)
	}
	wg.Wait()

	lr := LiveResult{Config: cfg, Speedup: speedup, WallSeconds: time.Since(start).Seconds()}
	for i := range outcomes {
		out := &outcomes[i]
		if out.err != nil && ctx.Err() == nil {
			return lr, out.err
		}
		if out.err != nil {
			return lr, fmt.Errorf("serve: replay client %d: %w", i, out.err)
		}
		lr.Account.Add(&out.m.Account)
		lr.Stales += out.stales
		lr.Writes += out.writes
		if out.maxLag > lr.MaxLagVirtual {
			lr.MaxLagVirtual = out.maxLag
		}
	}
	lr.HTTPCalls = atomic.LoadUint64(&httpCalls)
	if reads := lr.Account.Total(); reads > 0 {
		lr.StaleRate = float64(lr.Stales) / float64(reads)
	}
	// Identify the tier that served the run. Advisory: a service that
	// vanished right after the replay leaves the identity fields empty
	// rather than failing a finished measurement.
	if st, err := fetchStats(httpc, rc.BaseURL); err == nil {
		lr.Backend = st.Backend
		lr.BackendDSN = st.DSN
		lr.DiskBytes = st.DiskBytes
	}
	return lr, nil
}

// fetchStats retrieves the service's stats snapshot.
func fetchStats(httpc *http.Client, baseURL string) (Stats, error) {
	var st Stats
	resp, err := httpc.Get(baseURL + "/v1/stats")
	if err != nil {
		return st, fmt.Errorf("serve: /v1/stats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("serve: /v1/stats: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("serve: decode /v1/stats: %w", err)
	}
	return st, nil
}

// clientOutcome is one replayed client's measurements. The query counters
// and the read counts live in m, gated at the same warm-up as the rest.
type clientOutcome struct {
	m      metrics.Client // response time is the HTTP service time
	stales uint64         // post-warmup probes that found an expired copy
	writes uint64         // post-warmup update events applied
	maxLag float64
	err    error
}

// replayEnv bundles the per-client replay context: immutable but for the
// client's Grouping, which is reused across its queries.
type replayEnv struct {
	cfg       experiment.Config
	db        *oodb.Database
	id        int
	baseURL   string
	httpc     *http.Client
	speedup   float64
	horizon   float64
	warmup    float64
	start     time.Time
	live      *liveReads
	httpCalls *uint64
	group     *workload.Grouping
}

// replayClient runs one client's open-loop query stream to the horizon in
// the simulated client's order: arrival draw, pacing wait, query draw, probe
// reads, update model, fetch needs.
func replayClient(ctx context.Context, env replayEnv, out *clientOutcome) error {
	w := experiment.NewClientWorkload(env.cfg, env.db, env.id)
	var q workload.Query
	need := make([]workload.ReadOp, 0, 64)
	scheduled := 0.0
	// record counts one read's outcome, as the simulated client does, in
	// the client's account and in the one the live gauges read.
	record := func(o metrics.Outcome) {
		out.m.Read(scheduled, o)
		env.live.mu.Lock()
		env.live.m.Read(scheduled, o)
		env.live.mu.Unlock()
	}
	for {
		scheduled = w.Arrival.Next(w.Stream, scheduled)
		if scheduled >= env.horizon {
			return nil
		}
		if err := paceUntil(ctx, env.start, scheduled/env.speedup); err != nil {
			return err
		}
		if lag := time.Since(env.start).Seconds()*env.speedup - scheduled; lag > out.maxLag {
			out.maxLag = lag
		}
		w.Gen.NextInto(w.Stream, &q)

		measured := scheduled >= env.warmup
		t0 := time.Now()
		need = need[:0]
		for _, rd := range q.Reads {
			var resp ReadResponse
			if err := env.post("/v1/read", ReadRequest{
				Client: env.id, OID: uint32(rd.OID), Attr: uint8(rd.Attr), Mode: "probe",
			}, &resp); err != nil {
				return err
			}
			state := probeStates[resp.State]
			o, fetch := metrics.Classify(state, true)
			if !fetch {
				o.Error = resp.Error
				record(o)
				continue
			}
			if state == core.Stale && measured {
				out.stales++
			}
			need = append(need, rd)
		}

		if len(need) > 0 {
			// The simulated server flips the update coin per distinct
			// accessed object only when a request reaches it; all
			// attributes the query read on an updated object are written
			// as one event.
			if env.cfg.UpdateProb > 0 {
				if err := env.applyUpdates(&q, w, measured, &out.writes); err != nil {
					return err
				}
			}
			var fresh FetchResponse
			if err := env.post("/v1/fetch", fetchRequest(env.id, need), &fresh); err != nil {
				return err
			}
			for range need {
				record(metrics.Outcome{Kind: metrics.Fetched})
			}
		}

		out.m.RecordQuery(scheduled, scheduled+time.Since(t0).Seconds(), len(need) > 0, false)
	}
}

// probeStates decodes a ReadResponse's probe state; "miss" is the zero
// core.Miss.
var probeStates = map[string]core.LookupState{core.Hit.String(): core.Hit, core.Stale.String(): core.Stale}

// applyUpdates runs the simulated server's update model for one query over
// the client's workload.Grouping: a U-probability coin per distinct accessed
// object, and one write event covering the attributes the query read on each
// object that comes up. The coin stream is the client's private update
// substream — same distribution as the simulator's shared server stream,
// different sequence (see experiment.ClientWorkload).
func (env replayEnv) applyUpdates(q *workload.Query, w experiment.ClientWorkload,
	measured bool, writes *uint64) error {

	for _, oid := range env.group.Objects(q.Reads, nil) {
		if !w.UpdateStream.Bool(env.cfg.UpdateProb) {
			continue
		}
		var attrs []uint8
		for _, a := range workload.AttrsOf(q.Reads, oid, nil) {
			attrs = append(attrs, uint8(a))
		}
		var resp WriteResponse
		if err := env.post("/v1/write", WriteRequest{OID: uint32(oid), Attrs: attrs}, &resp); err != nil {
			return err
		}
		if measured {
			*writes++
		}
	}
	return nil
}

// fetchRequest converts a need list to its wire form.
func fetchRequest(client int, need []workload.ReadOp) FetchRequest {
	req := FetchRequest{Client: client, Reads: make([]WireRead, len(need))}
	for i, rd := range need {
		req.Reads[i] = WireRead{OID: uint32(rd.OID), Attr: uint8(rd.Attr)}
	}
	return req
}

// post issues one JSON round trip against the service.
func (env replayEnv) post(path string, body, dst any) error {
	atomic.AddUint64(env.httpCalls, 1)
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("serve: encode %s: %w", path, err)
	}
	req, err := http.NewRequest(http.MethodPost, env.baseURL+path, bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("serve: %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := env.httpc.Do(req)
	if err != nil {
		return fmt.Errorf("serve: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("serve: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		return fmt.Errorf("serve: decode %s: %w", path, err)
	}
	return nil
}

// paceUntil sleeps until the replay's real-time deadline for a virtual
// timestamp, honoring ctx cancellation.
func paceUntil(ctx context.Context, start time.Time, realOffset float64) error {
	deadline := start.Add(time.Duration(realOffset * float64(time.Second)))
	wait := time.Until(deadline)
	if wait <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}
