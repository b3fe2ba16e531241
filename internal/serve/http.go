// http.go is the HTTP/JSON transport over a Store: the endpoint catalog
// documented in docs/SERVING.md, per-endpoint timeouts, and a Service
// wrapper with graceful shutdown. Handlers are thin — every cache decision
// lives in the Store so other transports can reuse it unchanged.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/oodb"
	"repro/internal/workload"
)

// Default HTTP timeouts; override via HTTPConfig.
const (
	// DefaultOpTimeout bounds one cache operation end to end.
	DefaultOpTimeout = 5 * time.Second
	// DefaultAdminTimeout bounds the stats/lease inspection endpoints,
	// which aggregate across sessions.
	DefaultAdminTimeout = 10 * time.Second
	// DefaultDrainTimeout bounds graceful shutdown: in-flight requests get
	// this long to complete before the listener is torn down hard.
	DefaultDrainTimeout = 5 * time.Second
)

// HTTPConfig tunes the transport wrapper.
type HTTPConfig struct {
	// OpTimeout bounds the read/fetch/write/invalidate/renew endpoints
	// (DefaultOpTimeout when zero).
	OpTimeout time.Duration
	// AdminTimeout bounds /v1/stats and /v1/lease (DefaultAdminTimeout
	// when zero).
	AdminTimeout time.Duration
	// Reg, when enabled, receives an HTTP request-latency histogram
	// (serve.http_latency_s).
	Reg *obs.Registry
}

// ReadRequest is the body of POST /v1/read.
type ReadRequest struct {
	// Client identifies the cache session.
	Client int `json:"client"`
	// OID / Attr are the read coordinates (attribute index, pre-cover).
	OID  uint32 `json:"oid"`
	Attr uint8  `json:"attr"`
	// Mode is "serve" (default: fetch-on-miss) or "probe" (classify only).
	Mode string `json:"mode,omitempty"`
}

// ReadResponse is the body of a /v1/read reply.
type ReadResponse struct {
	// State is "hit", "stale", or "miss" — the probe classification.
	State string `json:"state"`
	// OID / Attr name the cache unit served (Attr 255 = whole object).
	OID  uint32 `json:"oid"`
	Attr uint8  `json:"attr"`
	// Version / ExpiresAt describe the served copy (zero on probe miss).
	Version   uint64  `json:"version"`
	ExpiresAt float64 `json:"expires_at"`
	// Error marks a hit served from a copy the origin has overwritten.
	Error bool `json:"error"`
	// FromOrigin marks a serve-mode origin fetch.
	FromOrigin bool `json:"from_origin,omitempty"`
	// Now is the store clock at the read.
	Now float64 `json:"now"`
}

// WireRead is one (oid, attr) coordinate in a fetch request.
type WireRead struct {
	// OID / Attr are the read coordinates.
	OID  uint32 `json:"oid"`
	Attr uint8  `json:"attr"`
}

// FetchRequest is the body of POST /v1/fetch.
type FetchRequest struct {
	// Client identifies the cache session.
	Client int `json:"client"`
	// Reads are the coordinates to cover and install.
	Reads []WireRead `json:"reads"`
}

// FetchedWire is one installed unit in a fetch reply.
type FetchedWire struct {
	// OID / Attr name the installed unit (Attr 255 = whole object).
	OID  uint32 `json:"oid"`
	Attr uint8  `json:"attr"`
	// Version / ExpiresAt echo the granted lease.
	Version   uint64  `json:"version"`
	ExpiresAt float64 `json:"expires_at"`
}

// FetchResponse is the body of a /v1/fetch reply.
type FetchResponse struct {
	// Items lists the installed units in first-seen dedup order.
	Items []FetchedWire `json:"items"`
	// Now is the store clock at the fetch.
	Now float64 `json:"now"`
}

// WriteRequest is the body of POST /v1/write: one update event.
type WriteRequest struct {
	// OID is the written object.
	OID uint32 `json:"oid"`
	// Attrs are the attributes modified by this event.
	Attrs []uint8 `json:"attrs"`
}

// WriteResponse is the body of a /v1/write reply.
type WriteResponse struct {
	// Version is the object's version after the event.
	Version uint64 `json:"version"`
	// Now is the store clock at the write.
	Now float64 `json:"now"`
}

// InvalidateRequest is the body of POST /v1/invalidate.
type InvalidateRequest struct {
	// Client selects the session; negative = every session.
	Client int `json:"client"`
	// OID / Attr select the unit; Attr 255 = every unit of the object.
	OID  uint32 `json:"oid"`
	Attr uint8  `json:"attr"`
}

// InvalidateResponse is the body of an /v1/invalidate reply.
type InvalidateResponse struct {
	// Removed counts cache entries dropped.
	Removed int `json:"removed"`
}

// LeaseResponse is the body of /v1/lease and /v1/renew replies.
type LeaseResponse struct {
	// Cached / Valid report residency and lease state.
	Cached bool `json:"cached"`
	Valid  bool `json:"valid"`
	// Version / ExpiresAt / Remaining describe the lease when cached.
	Version   uint64  `json:"version"`
	ExpiresAt float64 `json:"expires_at"`
	Remaining float64 `json:"remaining_s"`
	// Now is the store clock at the observation.
	Now float64 `json:"now"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	// Error is a human-readable description.
	Error string `json:"error"`
}

// NewHandler builds the HTTP endpoint catalog over st. Mutating endpoints
// are bounded by OpTimeout, inspection endpoints by AdminTimeout; every
// reply is JSON.
func NewHandler(st Store, hc HTTPConfig) http.Handler {
	if hc.OpTimeout == 0 {
		hc.OpTimeout = DefaultOpTimeout
	}
	if hc.AdminTimeout == 0 {
		hc.AdminTimeout = DefaultAdminTimeout
	}
	var latency *obs.Histogram
	if hc.Reg.Enabled() {
		latency = hc.Reg.Histogram("serve.http_latency_s", 1e-6, 10)
	}

	mux := http.NewServeMux()
	op := func(pattern string, h endpoint) {
		mux.Handle(pattern, bounded(hc.OpTimeout, h))
	}
	admin := func(pattern string, h endpoint) {
		mux.Handle(pattern, bounded(hc.AdminTimeout, h))
	}

	op("POST /v1/read", func(r *http.Request) (int, []byte) {
		var req ReadRequest
		if status, body := decode(r, &req); status != 0 {
			return status, body
		}
		mode, err := ParseReadMode(req.Mode)
		if err != nil {
			return errorReply(err)
		}
		res, err := st.Read(req.Client, oodb.OID(req.OID), oodb.AttrID(req.Attr), mode)
		if err != nil {
			return errorReply(err)
		}
		return encoded(ReadResponse{
			State:      res.State.String(),
			OID:        uint32(res.Item.OID),
			Attr:       uint8(res.Item.Attr),
			Version:    res.Version,
			ExpiresAt:  res.ExpiresAt,
			Error:      res.Error,
			FromOrigin: res.FromOrigin,
			Now:        res.Now,
		}.appendJSON(make([]byte, 0, 128)))
	})

	op("POST /v1/fetch", func(r *http.Request) (int, []byte) {
		var req FetchRequest
		if status, body := decode(r, &req); status != 0 {
			return status, body
		}
		reads := make([]workload.ReadOp, len(req.Reads))
		for i, rd := range req.Reads {
			reads[i] = workload.ReadOp{OID: oodb.OID(rd.OID), Attr: oodb.AttrID(rd.Attr)}
		}
		items, err := st.Fetch(req.Client, reads)
		if err != nil {
			return errorReply(err)
		}
		resp := FetchResponse{Items: make([]FetchedWire, len(items)), Now: st.Now()}
		for i, it := range items {
			resp.Items[i] = FetchedWire{
				OID:       uint32(it.Item.OID),
				Attr:      uint8(it.Item.Attr),
				Version:   it.Version,
				ExpiresAt: it.ExpiresAt,
			}
		}
		return encoded(resp.appendJSON(make([]byte, 0, 32+64*len(items))))
	})

	op("POST /v1/write", func(r *http.Request) (int, []byte) {
		var req WriteRequest
		if status, body := decode(r, &req); status != 0 {
			return status, body
		}
		attrs := make([]oodb.AttrID, len(req.Attrs))
		for i, a := range req.Attrs {
			attrs[i] = oodb.AttrID(a)
		}
		version, err := st.Write(oodb.OID(req.OID), attrs)
		if err != nil {
			return errorReply(err)
		}
		return encoded(WriteResponse{Version: version, Now: st.Now()}.appendJSON(make([]byte, 0, 48)))
	})

	op("POST /v1/invalidate", func(r *http.Request) (int, []byte) {
		var req InvalidateRequest
		if status, body := decode(r, &req); status != 0 {
			return status, body
		}
		removed, err := st.Invalidate(req.Client, oodb.OID(req.OID), oodb.AttrID(req.Attr))
		if err != nil {
			return errorReply(err)
		}
		return jsonReply(http.StatusOK, InvalidateResponse{Removed: removed})
	})

	op("POST /v1/renew", func(r *http.Request) (int, []byte) {
		var req InvalidateRequest
		if status, body := decode(r, &req); status != 0 {
			return status, body
		}
		info, err := st.Renew(req.Client, oodb.OID(req.OID), oodb.AttrID(req.Attr))
		if err != nil {
			return errorReply(err)
		}
		return jsonReply(http.StatusOK, leaseResponse(info))
	})

	admin("GET /v1/lease", func(r *http.Request) (int, []byte) {
		q := r.URL.Query()
		client, err1 := strconv.Atoi(q.Get("client"))
		oid, err2 := strconv.ParseUint(q.Get("oid"), 10, 32)
		attr, err3 := strconv.ParseUint(q.Get("attr"), 10, 8)
		if err1 != nil || err2 != nil || err3 != nil {
			return errorReply(fmt.Errorf("%w: lease wants integer client, oid, attr query params", ErrBadRequest))
		}
		info, err := st.Lease(client, oodb.OID(oid), oodb.AttrID(attr))
		if err != nil {
			return errorReply(err)
		}
		return jsonReply(http.StatusOK, leaseResponse(info))
	})

	admin("GET /v1/stats", func(r *http.Request) (int, []byte) {
		return jsonReply(http.StatusOK, st.Stats())
	})

	// A store that has failed closed (File after a persist error) answers
	// 503 here, so a supervisor polling the probe restarts it.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if fc, ok := st.(interface{ failed() error }); ok && fc.failed() != nil {
			status, body := jsonReply(http.StatusServiceUnavailable, ErrorResponse{Error: fc.failed().Error()})
			writeReply(w, status, jsonType, body)
			return
		}
		writeReply(w, http.StatusOK, textType, []byte("ok\n"))
	})

	if latency == nil {
		return mux
	}
	// Histograms are single-writer in the simulator; concurrent HTTP
	// handlers need the Observe serialized.
	var latMu sync.Mutex
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		mux.ServeHTTP(w, r)
		latMu.Lock()
		latency.Observe(time.Since(t0).Seconds())
		latMu.Unlock()
	})
}

// timeoutBody is the body of the 503 a bounded endpoint's watchdog sends,
// as text/plain (the type net/http's stock timeout wrapper gave it).
const timeoutBody = `{"error":"serve: request timed out"}`

// The reply content types.
const (
	jsonType = "application/json"
	textType = "text/plain; charset=utf-8"
)

// endpoint answers one request with a status and a JSON body. It never
// touches the ResponseWriter: bounded writes what it returns.
type endpoint func(r *http.Request) (status int, body []byte)

// bounded serves h on the connection's own goroutine under a watchdog of d.
// The endpoint and the watchdog race for one reply: the first one is
// written, the other is dropped. The watchdog's 503 is flushed when it
// fires, so the client gets it on time; the connection still waits for the
// endpoint to return before it reads its next request.
func bounded(d time.Duration, h endpoint) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rp := &reply{w: w}
		watchdog := time.AfterFunc(d, func() {
			rp.send(http.StatusServiceUnavailable, textType, []byte(timeoutBody), true)
		})
		// A panicking endpoint sends nothing; closing the reply on the way
		// out keeps a late watchdog off a ResponseWriter it no longer owns.
		defer func() {
			watchdog.Stop()
			rp.close()
		}()
		status, body := h(r)
		rp.send(status, jsonType, body, false)
	})
}

// reply is the one reply of a bounded request.
type reply struct {
	mu sync.Mutex
	w  http.ResponseWriter // nil once the reply is sent or closed
}

// send writes the reply unless it has been sent or closed; flush pushes it
// to the client at once.
func (rp *reply) send(status int, contentType string, body []byte, flush bool) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.w == nil {
		return
	}
	writeReply(rp.w, status, contentType, body)
	if flush {
		http.NewResponseController(rp.w).Flush()
	}
	rp.w = nil
}

// close drops whatever has not been sent.
func (rp *reply) close() {
	rp.mu.Lock()
	rp.w = nil
	rp.mu.Unlock()
}

// writeReply writes one complete reply.
func writeReply(w http.ResponseWriter, status int, contentType string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// leaseResponse converts a LeaseInfo to its wire form.
func leaseResponse(info LeaseInfo) LeaseResponse {
	return LeaseResponse{
		Cached:    info.Cached,
		Valid:     info.Valid,
		Version:   info.Version,
		ExpiresAt: info.ExpiresAt,
		Remaining: info.Remaining,
		Now:       info.Now,
	}
}

// decode parses a JSON body into dst. It returns status 0 when the body
// decoded, and the 400 reply otherwise.
func decode(r *http.Request, dst any) (status int, body []byte) {
	// The limit gets no ResponseWriter: the watchdog may be writing to it.
	// The server still closes the connection rather than drain a large
	// unread tail.
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return jsonReply(http.StatusBadRequest, ErrorResponse{Error: "serve: bad JSON body: " + err.Error()})
	}
	return 0, nil
}

// errorReply maps a store error to its reply: 400 for a bad request or an
// unsupported configuration, 500 otherwise.
func errorReply(err error) (int, []byte) {
	status := http.StatusInternalServerError
	if errors.Is(err, ErrBadRequest) || errors.Is(err, ErrUnsupported) {
		status = http.StatusBadRequest
	}
	return jsonReply(status, ErrorResponse{Error: err.Error()})
}

// jsonReply encodes v as json.Encoder.Encode would. A value encoding/json
// refuses (a non-finite float) answers 500 with the encoder's error.
func jsonReply(status int, v any) (int, []byte) {
	b, err := json.Marshal(v)
	if err != nil {
		return errorReply(err)
	}
	return status, append(b, '\n')
}

// encoded is the reply for an appendJSON result: 200, or 500 with the
// encoder's error.
func encoded(b []byte, err error) (int, []byte) {
	if err != nil {
		return errorReply(err)
	}
	return http.StatusOK, b
}

// appendJSON appends r exactly as json.Encoder.Encode writes it, trailing
// newline included; a non-finite float is encoding/json's error.
func (r ReadResponse) appendJSON(b []byte) ([]byte, error) {
	if err := finite(r.ExpiresAt, r.Now); err != nil {
		return b, err
	}
	b = append(b, `{"state":`...)
	b = appendString(b, r.State)
	b = append(b, `,"oid":`...)
	b = strconv.AppendUint(b, uint64(r.OID), 10)
	b = append(b, `,"attr":`...)
	b = strconv.AppendUint(b, uint64(r.Attr), 10)
	b = append(b, `,"version":`...)
	b = strconv.AppendUint(b, r.Version, 10)
	b = append(b, `,"expires_at":`...)
	b = appendFloat(b, r.ExpiresAt)
	b = append(b, `,"error":`...)
	b = strconv.AppendBool(b, r.Error)
	if r.FromOrigin {
		b = append(b, `,"from_origin":true`...)
	}
	b = append(b, `,"now":`...)
	b = appendFloat(b, r.Now)
	return append(b, "}\n"...), nil
}

// appendJSON appends r exactly as json.Encoder.Encode writes it, trailing
// newline included; a non-finite float is encoding/json's error.
func (r FetchResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"items":`...)
	if r.Items == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, it := range r.Items {
			if err := finite(it.ExpiresAt); err != nil {
				return b, err
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"oid":`...)
			b = strconv.AppendUint(b, uint64(it.OID), 10)
			b = append(b, `,"attr":`...)
			b = strconv.AppendUint(b, uint64(it.Attr), 10)
			b = append(b, `,"version":`...)
			b = strconv.AppendUint(b, it.Version, 10)
			b = append(b, `,"expires_at":`...)
			b = appendFloat(b, it.ExpiresAt)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if err := finite(r.Now); err != nil {
		return b, err
	}
	b = append(b, `,"now":`...)
	b = appendFloat(b, r.Now)
	return append(b, "}\n"...), nil
}

// appendJSON appends r exactly as json.Encoder.Encode writes it, trailing
// newline included; a non-finite float is encoding/json's error.
func (r WriteResponse) appendJSON(b []byte) ([]byte, error) {
	if err := finite(r.Now); err != nil {
		return b, err
	}
	b = append(b, `{"version":`...)
	b = strconv.AppendUint(b, r.Version, 10)
	b = append(b, `,"now":`...)
	b = appendFloat(b, r.Now)
	return append(b, "}\n"...), nil
}

// finite returns the error encoding/json gives the first non-finite float
// among fs, or nil.
func finite(fs ...float64) error {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
	}
	return nil
}

// appendFloat appends a finite f in encoding/json's form: the shortest 'f'
// form, or the 'e' form below 1e-6 and from 1e21 up, with a two-digit
// negative exponent trimmed to one digit (1e-07 becomes 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a JSON string. Printable ASCII that needs no
// escape is copied; anything else goes through encoding/json, so control
// characters, HTML-sensitive bytes and invalid UTF-8 come out as it
// writes them.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Service runs a Store behind an HTTP listener with graceful shutdown: an
// explicit Listen step (so callers learn the bound address before traffic),
// Serve to block, and Shutdown to drain in-flight requests.
type Service struct {
	srv *http.Server
	ln  net.Listener
}

// NewService wraps handler in an HTTP server for addr (host:port; port 0
// picks a free one at Listen).
func NewService(addr string, handler http.Handler) *Service {
	return &Service{srv: &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}}
}

// Listen binds the listener and returns the bound address.
func (s *Service) Listen() (string, error) {
	ln, err := net.Listen("tcp", s.srv.Addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	return ln.Addr().String(), nil
}

// Serve blocks serving the listener (Listen first). It returns nil after
// Shutdown, like http.Server.
func (s *Service) Serve() error {
	if s.ln == nil {
		if _, err := s.Listen(); err != nil {
			return err
		}
	}
	if err := s.srv.Serve(s.ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown drains in-flight requests for up to drain, then tears the
// server down. A zero drain selects DefaultDrainTimeout.
func (s *Service) Shutdown(drain time.Duration) error {
	if drain == 0 {
		drain = DefaultDrainTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
