package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/serve"
	"repro/internal/storage"
)

// Endpoints of the live request mix, in reporting order.
const (
	opRead = iota
	opFetch
	opWrite
	numOps
)

var opNames = [numOps]string{"read", "fetch", "write"}
var opPaths = [numOps]string{"/v1/read", "/v1/fetch", "/v1/write"}

// liveOp is one generated request: the coordinates a reply is checked
// against and the JSON body.
type liveOp struct {
	kind   uint8
	client int
	oid    uint32
	attr   uint8
	units  int // distinct units a fetch must return
	body   []byte
}

// genOps generates connection conn's request stream from the seed: Zipf
// objects, uniform attributes, all in the connection's own session. With
// readsOnly it is the warm-up stream.
func genOps(w *workloadSpec, seed uint64, conn, n int, readsOnly bool) []liveOp {
	salt := int64(conn)*2 + 1
	if readsOnly {
		salt++
	}
	r := rand.New(rand.NewSource(int64(seed)*1000003 + salt))
	zipf := rand.NewZipf(r, liveZipf, 1, liveObjects-1)
	// The mix is exact, not drawn: every stream holds the same number of
	// each kind in a seeded order, and writes cycle through 1, 2 and 3
	// attributes, so two seeds differ in which items they touch but not in
	// how much work they ask for.
	kinds := make([]uint8, n)
	reads, fetches := int(math.Round(float64(n)*w.readShare)), int(math.Round(float64(n)*w.fetchShare))
	for i := range kinds {
		switch {
		case readsOnly || i < reads:
			kinds[i] = opRead
		case i < reads+fetches:
			kinds[i] = opFetch
		default:
			kinds[i] = opWrite
		}
	}
	r.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	writes := 0
	ops := make([]liveOp, n)
	for i := range ops {
		op := &ops[i]
		op.client = conn
		op.oid = uint32(zipf.Uint64())
		op.attr = uint8(r.Intn(12))
		op.kind = kinds[i]
		switch op.kind {
		case opRead:
			op.body = fmt.Appendf(nil, `{"client":%d,"oid":%d,"attr":%d}`, op.client, op.oid, op.attr)
		case opFetch:
			b := fmt.Appendf(nil, `{"client":%d,"reads":[`, op.client)
			seen := map[[2]uint32]bool{}
			for j := 0; j < liveFetchReads; j++ {
				oid, attr := uint32(zipf.Uint64()), uint32(r.Intn(12))
				seen[[2]uint32{oid, attr}] = true
				if j > 0 {
					b = append(b, ',')
				}
				b = fmt.Appendf(b, `{"oid":%d,"attr":%d}`, oid, attr)
			}
			op.units = len(seen)
			op.body = append(b, "]}"...)
		case opWrite:
			b := fmt.Appendf(nil, `{"oid":%d,"attrs":[`, op.oid)
			writes++
			for j, k, first := 0, 1+writes%3, r.Intn(12); j < k; j++ {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64((first+j)%12), 10)
			}
			op.body = append(b, "]}"...)
		}
	}
	return ops
}

// target is a running service under test: the real mccached child, or the
// in-process service of the traced run.
type target struct {
	addr string
	// stop shuts the service down and returns its process's peak RSS in
	// MB (the harness's own for the in-process service).
	stop func() (rssMB float64, err error)
	// file is the persistent store of an in-process durable target.
	file *serve.File
}

// env is where the harness finds the mccached binary and may write.
type env struct {
	mccached string // built binary; "" forces in-process targets (tests)
	work     string // scratch directory inside the checkout
}

// backendDSN returns the -backend operand for the workload, creating a
// fresh directory for a persistent store; cleanup removes it.
func (e *env) backendDSN(w *workloadSpec) (dsn string, cleanup func(), err error) {
	if w.backend != "file" {
		return w.backend, func() {}, nil
	}
	dir, err := os.MkdirTemp(e.work, "durable-")
	if err != nil {
		return "", nil, err
	}
	// The flush policy is part of the workload: group commit with the
	// engine's default 2 ms window, on every run.
	return "file:" + filepath.Join(dir, "cache.db") + "?sync=group", func() { os.RemoveAll(dir) }, nil
}

// startChild boots the built mccached with its documented flags on a
// kernel-assigned loopback port and waits for the address file.
func (e *env) startChild(ctx context.Context, w *workloadSpec, seed uint64) (*target, error) {
	dsn, cleanup, err := e.backendDSN(w)
	if err != nil {
		return nil, err
	}
	addrFile, err := os.CreateTemp(e.work, "addr-")
	if err != nil {
		cleanup()
		return nil, err
	}
	addrFile.Close()
	cleanupAll := func() { cleanup(); os.Remove(addrFile.Name()) }

	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, e.mccached,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile.Name(),
		"-backend", dsn, "-granularity", "ac", "-objects", strconv.Itoa(liveObjects),
		"-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = &stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Start(); err != nil {
		cleanupAll()
		return nil, err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	stop := func() (float64, error) {
		defer cleanupAll()
		rss, rssErr := peakRSSMB(cmd.Process.Pid)
		cmd.Process.Signal(syscall.SIGTERM)
		if err := <-exited; err != nil {
			return 0, fmt.Errorf("mccached: %w\n%s", err, stderr.String())
		}
		return rss, rssErr
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		raw, _ := os.ReadFile(addrFile.Name())
		if addr := strings.TrimSpace(string(raw)); addr != "" {
			return &target{addr: addr, stop: stop}, nil
		}
		select {
		case err := <-exited:
			cleanupAll()
			return nil, fmt.Errorf("mccached exited before listening: %v\n%s", err, stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			<-exited
			cleanupAll()
			return nil, errors.New("mccached: no bound address after 10s")
		}
	}
}

// startInProcess hosts serve.NewHandler behind serve.NewService in this
// process, configured as startChild configures mccached. With a tracer,
// the store and the handler are wrapped in the span-recording decorators.
func (e *env) startInProcess(w *workloadSpec, seed uint64, tr *tracer) (*target, error) {
	dsn, cleanup, err := e.backendDSN(w)
	if err != nil {
		return nil, err
	}
	st, err := serve.Open(dsn, serve.Config{
		Granularity: core.AttributeCaching,
		Policy:      "ewma-0.5",
		NumObjects:  liveObjects,
		RelSeed:     experiment.RelSeed(seed),
	})
	if err != nil {
		cleanup()
		return nil, err
	}
	file, _ := st.(*serve.File)
	closeStore := func() error {
		defer cleanup()
		if c, ok := st.(io.Closer); ok {
			return c.Close()
		}
		return nil
	}
	var h http.Handler
	if tr != nil {
		h = &tracedHandler{next: serve.NewHandler(&tracedStore{Store: st, tr: tr}, serve.HTTPConfig{}), tr: tr}
	} else {
		h = serve.NewHandler(st, serve.HTTPConfig{})
	}
	svc := serve.NewService("127.0.0.1:0", h)
	addr, err := svc.Listen()
	if err != nil {
		closeStore()
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- svc.Serve() }()
	stop := func() (float64, error) {
		err := svc.Shutdown(0)
		if serr := <-served; err == nil {
			err = serr
		}
		if cerr := closeStore(); err == nil {
			err = cerr
		}
		rss, rerr := peakRSSMB(os.Getpid())
		if err == nil {
			err = rerr
		}
		return rss, err
	}
	return &target{addr: addr, stop: stop, file: file}, nil
}

// liveResult is what one live unit reports.
type liveResult struct {
	wallS, setupS, rssMB, cpuShare float64
	attempted, failed              int
	latUS                          [numOps][]float64 // client-observed, successful requests
	stats                          serve.Stats       // /v1/stats delta over the timed part
	storage0, storage1             storage.Stats     // in-process durable target only: before, after
}

// conn is one closed-loop connection: a raw HTTP/1.1 client that writes a
// request and waits for the reply. The request is framed by hand and the
// reply parsed by net/http, so the generator spends little CPU of its own
// on a box where it shares two cores with the server.
type conn struct {
	c   net.Conn
	br  *bufio.Reader
	out []byte
	in  bytes.Buffer
	// lastVersion is the newest version each object returned to a write
	// on this connection; versions must strictly increase.
	lastVersion map[uint32]uint64
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReader(c), lastVersion: make(map[uint32]uint64)}, nil
}

// do sends op and checks the reply: status 200 and a body that answers
// the request. With a tracer it records the client.roundtrip span and
// sends the trace headers.
func (c *conn) do(op *liveOp, tr *tracer) error {
	var id, start int64
	b := append(c.out[:0], "POST "...)
	b = append(b, opPaths[op.kind]...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(op.body)), 10)
	if tr != nil {
		id, start = tr.newID(), tr.now()
		b = append(b, "\r\n"+headerReq+": "...)
		b = strconv.AppendInt(b, id, 10)
		b = append(b, "\r\n"+headerKey+": "...)
		b = append(b, opNames[op.kind][0])
		if op.kind == opWrite {
			b = strconv.AppendUint(b, uint64(op.oid), 10)
		} else {
			b = strconv.AppendInt(b, int64(op.client), 10)
		}
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, op.body...)
	c.out = b
	if _, err := c.c.Write(b); err != nil {
		return err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return err
	}
	c.in.Reset()
	_, err = c.in.ReadFrom(resp.Body)
	resp.Body.Close()
	if tr != nil {
		tr.record(span{ID: id, Req: id, Name: spanRoundtrip, Op: opNames[op.kind], Start: start, End: tr.now()})
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", opPaths[op.kind], resp.StatusCode, c.in.Bytes())
	}
	return c.check(op)
}

// check verifies the reply body in c.in against the request.
func (c *conn) check(op *liveOp) error {
	switch op.kind {
	case opRead:
		var r serve.ReadResponse
		if err := json.Unmarshal(c.in.Bytes(), &r); err != nil {
			return err
		}
		// Under attribute caching the unit covering (oid, attr) is itself.
		if r.OID != op.oid || r.Attr != op.attr {
			return fmt.Errorf("read (%d,%d) answered with unit (%d,%d)", op.oid, op.attr, r.OID, r.Attr)
		}
	case opFetch:
		var r serve.FetchResponse
		if err := json.Unmarshal(c.in.Bytes(), &r); err != nil {
			return err
		}
		if len(r.Items) != op.units {
			return fmt.Errorf("fetch of %d distinct units returned %d items", op.units, len(r.Items))
		}
	case opWrite:
		var r serve.WriteResponse
		if err := json.Unmarshal(c.in.Bytes(), &r); err != nil {
			return err
		}
		if r.Version <= c.lastVersion[op.oid] {
			return fmt.Errorf("write to %d returned version %d after %d", op.oid, r.Version, c.lastVersion[op.oid])
		}
		c.lastVersion[op.oid] = r.Version
	}
	return nil
}

// getStats reads GET /v1/stats.
func getStats(addr string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// selfCPU returns the harness's own user+system CPU seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runLiveUnit runs one unit of a live workload: boot the service, warm
// the sessions (set-up), then drive the fixed request count over the
// closed-loop connections and check every reply.
func (e *env) runLiveUnit(ctx context.Context, w *workloadSpec, seed uint64, toy, inProcess bool, tr *tracer) (liveResult, error) {
	var res liveResult
	n, warm := w.requests, w.warm
	if toy {
		n, warm = w.toyRequests, w.toyRequests/5
	}
	// Inputs come from the seed alone and are generated before set-up is
	// timed: the generator's own cost is not the system's.
	var streams, warmups [liveConnections][]liveOp
	for c := 0; c < liveConnections; c++ {
		streams[c] = genOps(w, seed, c, n, false)
		warmups[c] = genOps(w, seed, c, warm, true)
	}

	setupStart := time.Now()
	var tg *target
	var err error
	if inProcess || e.mccached == "" {
		tg, err = e.startInProcess(w, seed, tr)
	} else {
		tg, err = e.startChild(ctx, w, seed)
	}
	if err != nil {
		return res, err
	}
	stopped := false
	defer func() {
		if !stopped {
			tg.stop()
		}
	}()

	var conns [liveConnections]*conn
	for c := range conns {
		if conns[c], err = dial(tg.addr); err != nil {
			return res, err
		}
		defer conns[c].c.Close()
	}
	// drive runs every connection's stream concurrently; each connection
	// sends its next request only after the previous reply.
	drive := func(ops *[liveConnections][]liveOp, tr *tracer, timed bool) error {
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		for c := range conns {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var lat [numOps][]float64
				failed := 0
				for i := range ops[c] {
					if ctx.Err() != nil {
						break
					}
					op := &ops[c][i]
					t0 := time.Now()
					err := conns[c].do(op, tr)
					d := time.Since(t0)
					if err != nil {
						failed++
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						var ne net.Error
						if errors.As(err, &ne) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
							failed += len(ops[c]) - i - 1 // the connection is gone
							break
						}
						continue
					}
					lat[op.kind] = append(lat[op.kind], float64(d)/1e3)
				}
				if timed {
					mu.Lock()
					res.failed += failed
					for k := range lat {
						res.latUS[k] = append(res.latUS[k], lat[k]...)
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		return firstErr
	}
	if err := drive(&warmups, nil, false); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	before, err := getStats(tg.addr)
	if err != nil {
		return res, err
	}
	if tg.file != nil {
		res.storage0 = tg.file.Storage().Stats()
	}
	res.setupS = time.Since(setupStart).Seconds()

	cpu0 := selfCPU()
	t0 := time.Now()
	firstErr := drive(&streams, tr, true)
	res.wallS = time.Since(t0).Seconds()
	res.cpuShare = (selfCPU() - cpu0) / res.wallS
	res.attempted = liveConnections * n
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: first failure: %v\n", w.name, firstErr)
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	after, err := getStats(tg.addr)
	if err != nil {
		return res, err
	}
	res.stats = statsDelta(before, after)
	if tg.file != nil {
		res.storage1 = tg.file.Storage().Stats()
	}
	stopped = true
	res.rssMB, err = tg.stop()
	return res, err
}

// statsDelta subtracts the cumulative counters of a from b.
func statsDelta(a, b serve.Stats) serve.Stats {
	b.Reads -= a.Reads
	b.Hits -= a.Hits
	b.Stales -= a.Stales
	b.Misses -= a.Misses
	b.Errors -= a.Errors
	b.Fetches -= a.Fetches
	b.Writes -= a.Writes
	return b
}
