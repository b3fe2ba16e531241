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
	op := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, http.TimeoutHandler(h, hc.OpTimeout, timeoutBody))
	}
	admin := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, http.TimeoutHandler(h, hc.AdminTimeout, timeoutBody))
	}

	op("POST /v1/read", func(w http.ResponseWriter, r *http.Request) {
		var req ReadRequest
		if !decode(w, r, &req) {
			return
		}
		mode, err := ParseReadMode(req.Mode)
		if err != nil {
			writeErr(w, err)
			return
		}
		res, err := st.Read(req.Client, oodb.OID(req.OID), oodb.AttrID(req.Attr), mode)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, ReadResponse{
			State:      res.State.String(),
			OID:        uint32(res.Item.OID),
			Attr:       uint8(res.Item.Attr),
			Version:    res.Version,
			ExpiresAt:  res.ExpiresAt,
			Error:      res.Error,
			FromOrigin: res.FromOrigin,
			Now:        res.Now,
		})
	})

	op("POST /v1/fetch", func(w http.ResponseWriter, r *http.Request) {
		var req FetchRequest
		if !decode(w, r, &req) {
			return
		}
		reads := make([]workload.ReadOp, len(req.Reads))
		for i, rd := range req.Reads {
			reads[i] = workload.ReadOp{OID: oodb.OID(rd.OID), Attr: oodb.AttrID(rd.Attr)}
		}
		items, err := st.Fetch(req.Client, reads)
		if err != nil {
			writeErr(w, err)
			return
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
		writeJSON(w, http.StatusOK, resp)
	})

	op("POST /v1/write", func(w http.ResponseWriter, r *http.Request) {
		var req WriteRequest
		if !decode(w, r, &req) {
			return
		}
		attrs := make([]oodb.AttrID, len(req.Attrs))
		for i, a := range req.Attrs {
			attrs[i] = oodb.AttrID(a)
		}
		version, err := st.Write(oodb.OID(req.OID), attrs)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, WriteResponse{Version: version, Now: st.Now()})
	})

	op("POST /v1/invalidate", func(w http.ResponseWriter, r *http.Request) {
		var req InvalidateRequest
		if !decode(w, r, &req) {
			return
		}
		removed, err := st.Invalidate(req.Client, oodb.OID(req.OID), oodb.AttrID(req.Attr))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, InvalidateResponse{Removed: removed})
	})

	op("POST /v1/renew", func(w http.ResponseWriter, r *http.Request) {
		var req InvalidateRequest
		if !decode(w, r, &req) {
			return
		}
		info, err := st.Renew(req.Client, oodb.OID(req.OID), oodb.AttrID(req.Attr))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, leaseResponse(info))
	})

	admin("GET /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		client, err1 := strconv.Atoi(q.Get("client"))
		oid, err2 := strconv.ParseUint(q.Get("oid"), 10, 32)
		attr, err3 := strconv.ParseUint(q.Get("attr"), 10, 8)
		if err1 != nil || err2 != nil || err3 != nil {
			writeErr(w, fmt.Errorf("%w: lease wants integer client, oid, attr query params", ErrBadRequest))
			return
		}
		info, err := st.Lease(client, oodb.OID(oid), oodb.AttrID(attr))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, leaseResponse(info))
	})

	admin("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, st.Stats())
	})

	// A store that has failed closed (File after a persist error) answers
	// 503 here, so a supervisor polling the probe restarts it.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if fc, ok := st.(interface{ failed() error }); ok && fc.failed() != nil {
			writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: fc.failed().Error()})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
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

// timeoutBody is the JSON body http.TimeoutHandler serves on expiry.
const timeoutBody = `{"error":"serve: request timed out"}`

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

// decode parses a JSON body, replying 400 on failure.
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "serve: bad JSON body: " + err.Error()})
		return false
	}
	return true
}

// writeErr maps store errors to HTTP statuses.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, ErrBadRequest) || errors.Is(err, ErrUnsupported) {
		status = http.StatusBadRequest
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// writeJSON renders one JSON reply.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
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
