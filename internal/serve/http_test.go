package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oodb"
)

func newTestHandler(t *testing.T, gran core.Granularity) (http.Handler, Store) {
	t.Helper()
	st, err := Open("memory", Config{Granularity: gran, NumObjects: 200, FixedLease: 60})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return NewHandler(st, HTTPConfig{}), st
}

func postJSON(t *testing.T, client *http.Client, url string, body, dst any) *http.Response {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if dst != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestHTTPEndpointRoundTrips(t *testing.T) {
	handler, _ := newTestHandler(t, core.AttributeCaching)
	ts := httptest.NewServer(handler)
	defer ts.Close()
	c := ts.Client()

	// Miss, then serve, then hit.
	var read ReadResponse
	postJSON(t, c, ts.URL+"/v1/read", ReadRequest{Client: 0, OID: 5, Attr: 2}, &read)
	if read.State != "miss" || !read.FromOrigin {
		t.Fatalf("first read %+v; want served miss", read)
	}
	postJSON(t, c, ts.URL+"/v1/read", ReadRequest{Client: 0, OID: 5, Attr: 2}, &read)
	if read.State != "hit" {
		t.Fatalf("second read %+v; want hit", read)
	}

	// Write bumps the version; the resident copy becomes an erroneous hit.
	var write WriteResponse
	postJSON(t, c, ts.URL+"/v1/write", WriteRequest{OID: 5, Attrs: []uint8{2}}, &write)
	if write.Version == 0 {
		t.Fatalf("write response %+v; want nonzero version", write)
	}
	postJSON(t, c, ts.URL+"/v1/read", ReadRequest{Client: 0, OID: 5, Attr: 2, Mode: "probe"}, &read)
	if read.State != "hit" || !read.Error {
		t.Fatalf("post-write probe %+v; want erroneous hit", read)
	}

	// Fetch installs fresh copies (dedup on the wire).
	var fetch FetchResponse
	postJSON(t, c, ts.URL+"/v1/fetch", FetchRequest{
		Client: 0,
		Reads:  []WireRead{{OID: 5, Attr: 2}, {OID: 5, Attr: 2}, {OID: 6, Attr: 0}},
	}, &fetch)
	if len(fetch.Items) != 2 {
		t.Fatalf("fetch installed %d items; want 2 after dedup", len(fetch.Items))
	}

	// Lease inspection sees the refreshed copy.
	var lease LeaseResponse
	resp, err := c.Get(fmt.Sprintf("%s/v1/lease?client=0&oid=5&attr=2", ts.URL))
	if err != nil {
		t.Fatalf("GET lease: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatalf("decode lease: %v", err)
	}
	resp.Body.Close()
	if !lease.Cached || !lease.Valid || lease.Version != write.Version {
		t.Fatalf("lease %+v; want valid at version %d", lease, write.Version)
	}

	// Renew refreshes in place.
	var renewed LeaseResponse
	postJSON(t, c, ts.URL+"/v1/renew", InvalidateRequest{Client: 0, OID: 5, Attr: 2}, &renewed)
	if !renewed.Cached || !renewed.Valid {
		t.Fatalf("renew %+v; want valid lease", renewed)
	}

	// Invalidate drops the whole object across sessions.
	var inv InvalidateResponse
	postJSON(t, c, ts.URL+"/v1/invalidate", InvalidateRequest{Client: -1, OID: 5, Attr: 255}, &inv)
	if inv.Removed == 0 {
		t.Fatalf("invalidate removed %d; want > 0", inv.Removed)
	}
	postJSON(t, c, ts.URL+"/v1/read", ReadRequest{Client: 0, OID: 5, Attr: 2, Mode: "probe"}, &read)
	if read.State != "miss" {
		t.Fatalf("post-invalidate probe %+v; want miss", read)
	}

	// Stats and health.
	resp, err = c.Get(ts.URL + "/v1/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stats: %v (%v)", err, resp.Status)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	resp.Body.Close()
	if stats.Backend != "memory" || stats.Reads == 0 {
		t.Fatalf("stats %+v; want memory backend with reads recorded", stats)
	}
	resp, err = c.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET healthz: %v (%v)", err, resp.Status)
	}
	resp.Body.Close()
}

func TestHTTPBadRequests(t *testing.T) {
	handler, _ := newTestHandler(t, core.ObjectCaching)
	ts := httptest.NewServer(handler)
	defer ts.Close()
	c := ts.Client()

	cases := []struct {
		name string
		do   func() *http.Response
	}{
		{"bad JSON", func() *http.Response {
			resp, err := c.Post(ts.URL+"/v1/read", "application/json", bytes.NewReader([]byte("{nope")))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
		{"unknown field", func() *http.Response {
			resp, err := c.Post(ts.URL+"/v1/read", "application/json", bytes.NewReader([]byte(`{"clientid":3}`)))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
		{"bad mode", func() *http.Response {
			return postJSON(t, c, ts.URL+"/v1/read", ReadRequest{OID: 1, Mode: "psychic"}, nil)
		}},
		{"oid out of range", func() *http.Response {
			return postJSON(t, c, ts.URL+"/v1/read", ReadRequest{OID: 1 << 20}, nil)
		}},
		{"empty write", func() *http.Response {
			return postJSON(t, c, ts.URL+"/v1/write", WriteRequest{OID: 1}, nil)
		}},
		{"bad lease params", func() *http.Response {
			resp, err := c.Get(ts.URL + "/v1/lease?client=zero&oid=1&attr=0")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
	}
	for _, tc := range cases {
		resp := tc.do()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d; want 400", tc.name, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestHTTPConcurrentReadInvalidate drives the transport end to end from
// concurrent goroutines — the -race companion to the store-level test.
func TestHTTPConcurrentReadInvalidate(t *testing.T) {
	handler, _ := newTestHandler(t, core.AttributeCaching)
	ts := httptest.NewServer(handler)
	defer ts.Close()

	const workers, iters = 6, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := ts.Client()
			for i := 0; i < iters; i++ {
				var resp *http.Response
				if w%3 == 0 {
					resp = postJSON(t, c, ts.URL+"/v1/invalidate",
						InvalidateRequest{Client: -1, OID: 42, Attr: 255}, nil)
				} else {
					resp = postJSON(t, c, ts.URL+"/v1/read",
						ReadRequest{Client: w, OID: 42, Attr: uint8(i % 12)}, nil)
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("worker %d: status %d", w, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// slowStore delays reads so shutdown tests can hold a request in flight.
type slowStore struct {
	Store
	delay time.Duration
}

func (s slowStore) Read(clientID int, oid oodb.OID, attr oodb.AttrID, mode ReadMode) (ReadResult, error) {
	time.Sleep(s.delay)
	return s.Store.Read(clientID, oid, attr, mode)
}

// TestShutdownDrainsInFlight boots a real Service on a loopback port, parks
// a slow request in flight, and verifies graceful shutdown completes it
// while refusing new connections afterwards.
func TestShutdownDrainsInFlight(t *testing.T) {
	st, err := Open("memory", Config{Granularity: core.ObjectCaching, NumObjects: 100, FixedLease: 60})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	svc := NewService("127.0.0.1:0", NewHandler(slowStore{Store: st, delay: 150 * time.Millisecond}, HTTPConfig{}))
	addr, err := svc.Listen()
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- svc.Serve() }()

	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/read", "application/json",
			bytes.NewReader([]byte(`{"client":0,"oid":1,"attr":0}`)))
		if err != nil {
			inflight <- -1
			return
		}
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond) // request is now sleeping in slowStore

	if err := svc.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if status := <-inflight; status != http.StatusOK {
		t.Fatalf("in-flight request finished with %d; want 200 (drained, not dropped)", status)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown; want nil", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// blockingStore parks Read and Stats until release is closed.
type blockingStore struct {
	Store
	release chan struct{}
}

func (s blockingStore) Read(clientID int, oid oodb.OID, attr oodb.AttrID, mode ReadMode) (ReadResult, error) {
	<-s.release
	return s.Store.Read(clientID, oid, attr, mode)
}

func (s blockingStore) Stats() Stats {
	<-s.release
	return s.Store.Stats()
}

// TestOpTimeoutAnswers503 pins the timeout contract: a store call that
// outlives its endpoint's timeout gets the 503 on time, while the call is
// still parked; its late reply is dropped, and the same keep-alive
// connection then serves the next request normally.
func TestOpTimeoutAnswers503(t *testing.T) {
	// The other class's timeout outlasts the client's, so a route bounded
	// by the wrong one fails the request instead of answering 503.
	const timeout, never = 50 * time.Millisecond, time.Minute
	for _, tc := range []struct {
		name, method, path, body string
		hc                       HTTPConfig
	}{
		{"read under OpTimeout", "POST", "/v1/read", `{"client":0,"oid":1,"attr":0}`,
			HTTPConfig{OpTimeout: timeout, AdminTimeout: never}},
		{"stats under AdminTimeout", "GET", "/v1/stats", "",
			HTTPConfig{OpTimeout: never, AdminTimeout: timeout}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open("memory", Config{Granularity: core.ObjectCaching, NumObjects: 100, FixedLease: 60})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			release := make(chan struct{})
			unblock := sync.OnceFunc(func() { close(release) })
			ts := httptest.NewServer(NewHandler(blockingStore{Store: st, release: release}, tc.hc))
			defer ts.Close()
			defer unblock() // before Close, which waits for the parked request
			client := ts.Client()
			client.Timeout = 5 * time.Second

			var reused []bool
			do := func() (*http.Response, []byte) {
				t.Helper()
				req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
				if err != nil {
					t.Fatal(err)
				}
				req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
					GotConn: func(info httptrace.GotConnInfo) { reused = append(reused, info.Reused) },
				}))
				resp, err := client.Do(req)
				if err != nil {
					t.Fatalf("%s %s: %v", tc.method, tc.path, err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				return resp, body
			}

			t0 := time.Now()
			resp, body := do()
			elapsed := time.Since(t0)
			// The store call is still parked: the 503 did not wait for it.
			if resp.StatusCode != http.StatusServiceUnavailable || string(body) != timeoutBody ||
				resp.Header.Get("Content-Type") != "text/plain; charset=utf-8" ||
				resp.Header.Get("Content-Length") != strconv.Itoa(len(timeoutBody)) {
				t.Fatalf("timed-out reply: %d %q %v; want 503 %q as text/plain with its Content-Length",
					resp.StatusCode, body, resp.Header, timeoutBody)
			}
			if elapsed < timeout || elapsed > timeout+time.Second {
				t.Fatalf("503 after %v; want it at the %v timeout", elapsed, timeout)
			}

			unblock()
			resp, body = do()
			if resp.StatusCode != http.StatusOK || !json.Valid(body) || bytes.Contains(body, []byte("timed out")) {
				t.Fatalf("next request: %d %q; want a 200 of its own", resp.StatusCode, body)
			}
			if len(reused) != 2 || !reused[1] {
				t.Fatalf("connection reuse %v; want the next request on the same keep-alive connection", reused)
			}
		})
	}
}

// nanStore answers every read and stats call with a non-finite float.
type nanStore struct{ Store }

func (nanStore) Read(clientID int, oid oodb.OID, attr oodb.AttrID, mode ReadMode) (ReadResult, error) {
	return ReadResult{ExpiresAt: math.NaN()}, nil
}

func (s nanStore) Stats() Stats {
	stats := s.Store.Stats()
	stats.Uptime = math.NaN()
	return stats
}

// TestUnencodableReplyIs500: a reply encoding/json would refuse answers 500
// with the encoder's error, from the append encoders and encoding/json
// alike, never a 200 with an empty body.
func TestUnencodableReplyIs500(t *testing.T) {
	st, err := Open("memory", Config{Granularity: core.ObjectCaching, NumObjects: 100})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(NewHandler(nanStore{st}, HTTPConfig{}))
	defer ts.Close()
	const want = `{"error":"json: unsupported value: NaN"}` + "\n"
	for _, path := range []string{"/v1/read", "/v1/stats"} {
		var resp *http.Response
		if path == "/v1/read" {
			resp, err = ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader([]byte(`{"client":0,"oid":1,"attr":0}`)))
		} else {
			resp, err = ts.Client().Get(ts.URL + path)
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || string(body) != want ||
			resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("%s: %d %q (%s); want 500 %q", path, resp.StatusCode, body, resp.Header.Get("Content-Type"), want)
		}
	}
}

// TestHandlerRegistersLatency exercises the instrumented path.
func TestHandlerRegistersLatency(t *testing.T) {
	st, err := Open("memory", Config{Granularity: core.ObjectCaching, NumObjects: 100})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	reg := obs.New(0.001) // sample every millisecond of wall time at scale 1
	handler := NewHandler(st, HTTPConfig{Reg: reg})
	st.Register(reg)
	ts := httptest.NewServer(handler)
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/read", ReadRequest{Client: 0, OID: 1, Attr: 0}, nil)

	ticker := AttachWallClock(reg, 1, InfiniteHorizon)
	time.Sleep(20 * time.Millisecond)
	ticker.Stop()
	if _, v := reg.Series("serve.reads").Last(); v < 1 {
		t.Fatalf("serve.reads sampled %v; want >= 1", v)
	}
	if reg.Series("serve.http_latency_s") != nil {
		t.Fatal("histograms must not be sampled as series")
	}
	if got := reg.Histograms(); len(got) == 0 {
		t.Fatal("latency histogram not registered")
	}
}
