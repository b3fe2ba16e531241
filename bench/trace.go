package main

import (
	"cmp"
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/oodb"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Span names recorded by the harness. A request's three spans nest
// client.roundtrip → serve.http → serve.store.<method> and share Req.
const (
	spanRoundtrip = "client.roundtrip"
	spanHTTP      = "serve.http"
	spanStore     = "serve.store."
)

// Trace headers: the load generator names its round-trip span and the
// store call the request will make, so the two server-side decorators can
// parent their spans without touching internal/serve.
const (
	headerReq = "X-Bench-Req"
	headerKey = "X-Bench-Key"
)

// span is one timed interval: times are nanoseconds since the tracer
// started, Parent is the span that caused it (0 = none), Req the request
// (round-trip span) it belongs to, Op the endpoint ("read", "fetch",
// "write") or empty for layer-driver batches.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	Op      string `json:"op,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Install bool   `json:"install,omitempty"`

	key string // store-call key of serve.http and serve.store spans; see link
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced and traced runs share one code path.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now returns nanoseconds since the tracer started (0 when disabled).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// newID allocates a span identifier (never 0 when enabled).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// tracedHandler is the harness-side http.Handler decorator: one serve.http
// span per request that carries the trace headers.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err := strconv.ParseInt(r.Header.Get(headerReq), 10, 64)
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	key := r.Header.Get(headerKey)
	id, start := h.tr.newID(), h.tr.now()
	h.next.ServeHTTP(w, r)
	h.tr.record(span{ID: id, Parent: req, Req: req, Name: spanHTTP, Op: opOfKey(key), Start: start, End: h.tr.now(), key: key})
}

// opOfKey maps a store-call key back to its endpoint name.
func opOfKey(key string) string {
	for _, op := range opNames {
		if key != "" && key[0] == op[0] {
			return op
		}
	}
	return ""
}

// tracedStore is the harness-side serve.Store decorator: one
// serve.store.<method> span per Read, Fetch and Write; every other method
// passes through. The Store interface carries no request context, so a
// store span is recorded with its call's key and linked to its handler
// span when the run ends.
type tracedStore struct {
	serve.Store
	tr *tracer
}

// storeSpan records the span of store method op; its key is op's initial
// followed by id, as the load generator names it in the key header.
func (s *tracedStore) storeSpan(op string, id uint64, start int64, install bool) {
	end := s.tr.now()
	key := string(strconv.AppendUint([]byte{op[0]}, id, 10))
	s.tr.record(span{ID: s.tr.newID(), Name: spanStore + op, Op: op, Start: start, End: end, Install: install, key: key})
}

func (s *tracedStore) Read(clientID int, oid oodb.OID, attr oodb.AttrID, mode serve.ReadMode) (serve.ReadResult, error) {
	start := s.tr.now()
	res, err := s.Store.Read(clientID, oid, attr, mode)
	s.storeSpan("read", uint64(clientID), start, res.FromOrigin)
	return res, err
}

func (s *tracedStore) Fetch(clientID int, reads []workload.ReadOp) ([]serve.FetchedItem, error) {
	start := s.tr.now()
	items, err := s.Store.Fetch(clientID, reads)
	s.storeSpan("fetch", uint64(clientID), start, true)
	return items, err
}

func (s *tracedStore) Write(oid oodb.OID, attrs []oodb.AttrID) (uint64, error) {
	start := s.tr.now()
	v, err := s.Store.Write(oid, attrs)
	s.storeSpan("write", uint64(oid), start, false)
	return v, err
}

// link parents every store span to the serve.http span that made the call:
// one with the same key whose interval contains it. A connection is a
// closed loop over its own session, so a read or fetch key has one
// candidate; several connections may write one object at once, and then a
// handler may contain several calls. Taking the calls from the latest end
// to the earliest, every handler that ends after the call remains eligible
// for all later ones too, so giving each call the eligible handler with the
// latest start keeps the earlier-starting handlers for the calls that need
// them — every call finds a handler that contains it.
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	type candidates struct {
		handlers []*span // by end, latest first
		next     int     // handlers[:next] have entered the pool
		pool     []*span // unmatched handlers ending after the current call
	}
	byKey := make(map[string]*candidates)
	var calls []*span
	for i := range t.spans {
		s := &t.spans[i]
		switch {
		case s.Name == spanHTTP:
			if byKey[s.key] == nil {
				byKey[s.key] = &candidates{}
			}
			byKey[s.key].handlers = append(byKey[s.key].handlers, s)
		case strings.HasPrefix(s.Name, spanStore):
			calls = append(calls, s)
		}
	}
	latestEndFirst := func(a, b *span) int { return cmp.Compare(b.End, a.End) }
	for _, c := range byKey {
		slices.SortFunc(c.handlers, latestEndFirst)
	}
	slices.SortFunc(calls, latestEndFirst)
	for _, call := range calls {
		c := byKey[call.key]
		if c == nil {
			continue
		}
		for c.next < len(c.handlers) && c.handlers[c.next].End >= call.End {
			c.pool = append(c.pool, c.handlers[c.next])
			c.next++
		}
		best := -1
		for i, h := range c.pool {
			if h.Start <= call.Start && (best < 0 || h.Start > c.pool[best].Start) {
				best = i
			}
		}
		if best >= 0 {
			call.Parent, call.Req = c.pool[best].ID, c.pool[best].Req
			c.pool = slices.Delete(c.pool, best, best+1)
		}
	}
}

// spanTimes is the per-request decomposition the analysis produces, in
// microseconds: self is the handler span minus its store child (JSON
// codec, mux, TimeoutHandler), socket the round trip minus the handler.
type spanTimes struct {
	roundtrip, handler, self, socket, store []float64
	storeInstall                            []float64 // store spans that installed a copy
}

// analyze links the store spans to their handlers, joins each round trip
// with its serve.http child and serve.store grandchild, and splits the
// times per endpoint; key "" pools every endpoint.
func (t *tracer) analyze() map[string]*spanTimes {
	t.link()
	t.mu.Lock()
	defer t.mu.Unlock()
	httpOf := make(map[int64]*span)  // round-trip id → serve.http span
	storeOf := make(map[int64]*span) // serve.http id → serve.store span
	for i := range t.spans {
		s := &t.spans[i]
		switch {
		case s.Name == spanHTTP:
			httpOf[s.Parent] = s
		case s.Parent != 0 && strings.HasPrefix(s.Name, spanStore):
			storeOf[s.Parent] = s
		}
	}
	out := map[string]*spanTimes{"": {}}
	us := func(s *span) float64 { return float64(s.End-s.Start) / 1e3 }
	for i := range t.spans {
		rt := &t.spans[i]
		if rt.Name != spanRoundtrip {
			continue
		}
		h := httpOf[rt.ID]
		if h == nil {
			continue
		}
		st := storeOf[h.ID]
		if st == nil {
			continue
		}
		if out[rt.Op] == nil {
			out[rt.Op] = &spanTimes{}
		}
		for _, b := range []*spanTimes{out[""], out[rt.Op]} {
			b.roundtrip = append(b.roundtrip, us(rt))
			b.handler = append(b.handler, us(h))
			b.self = append(b.self, us(h)-us(st))
			b.socket = append(b.socket, us(rt)-us(h))
			b.store = append(b.store, us(st))
			if st.Install {
				b.storeInstall = append(b.storeInstall, us(st))
			}
		}
	}
	return out
}
