package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire.json")

// wireCase is one request of the golden corpus and the reply it got: the
// store clock reads Now while the request is served.
type wireCase struct {
	Name          string  `json:"name"`
	Method        string  `json:"method"`
	Target        string  `json:"target"`
	Body          string  `json:"body,omitempty"`
	Now           float64 `json:"now"`
	Status        int     `json:"status"`
	ContentType   string  `json:"content_type"`
	ContentLength string  `json:"content_length"`
	Reply         string  `json:"reply"`
}

// wireRequests is the corpus script, run in order against one attribute
// caching memory store with fixed 60 s leases. It covers every endpoint and
// every TestHTTPBadRequests case; the clock readings span both of
// encoding/json's float forms.
var wireRequests = []wireCase{
	{Name: "read serve miss", Method: "POST", Target: "/v1/read", Body: `{"client":0,"oid":5,"attr":2}`, Now: 5e-7},
	{Name: "read serve hit", Method: "POST", Target: "/v1/read", Body: `{"client":0,"oid":5,"attr":2,"mode":"serve"}`, Now: 12.5},
	{Name: "read probe miss", Method: "POST", Target: "/v1/read", Body: `{"client":1,"oid":7,"attr":1,"mode":"probe"}`, Now: 13.25},
	{Name: "write", Method: "POST", Target: "/v1/write", Body: `{"oid":5,"attrs":[2,3,2]}`, Now: 15.125},
	{Name: "read probe erroneous hit", Method: "POST", Target: "/v1/read", Body: `{"client":0,"oid":5,"attr":2,"mode":"probe"}`, Now: 16},
	{Name: "fetch with duplicates", Method: "POST", Target: "/v1/fetch", Body: `{"client":0,"reads":[{"oid":5,"attr":2},{"oid":5,"attr":2},{"oid":6,"attr":0}]}`, Now: 17.75},
	{Name: "fetch nothing", Method: "POST", Target: "/v1/fetch", Body: `{"client":0,"reads":[]}`, Now: 18},
	{Name: "lease", Method: "GET", Target: "/v1/lease?client=0&oid=5&attr=2", Now: 19.5},
	{Name: "renew", Method: "POST", Target: "/v1/renew", Body: `{"client":0,"oid":5,"attr":2}`, Now: 20.0625},
	{Name: "renew absent", Method: "POST", Target: "/v1/renew", Body: `{"client":3,"oid":9,"attr":0}`, Now: 20.5},
	{Name: "invalidate", Method: "POST", Target: "/v1/invalidate", Body: `{"client":-1,"oid":5,"attr":255}`, Now: 21},
	{Name: "lease absent", Method: "GET", Target: "/v1/lease?client=0&oid=5&attr=2", Now: 22},
	{Name: "read stale", Method: "POST", Target: "/v1/read", Body: `{"client":0,"oid":6,"attr":0,"mode":"probe"}`, Now: 1e21},
	{Name: "stats", Method: "GET", Target: "/v1/stats", Now: 1e21},
	{Name: "healthz", Method: "GET", Target: "/healthz", Now: 1e21},
	{Name: "bad JSON", Method: "POST", Target: "/v1/read", Body: `{nope`, Now: 1e21},
	{Name: "unknown field", Method: "POST", Target: "/v1/read", Body: `{"clientid":3}`, Now: 1e21},
	{Name: "bad mode", Method: "POST", Target: "/v1/read", Body: `{"client":0,"oid":1,"attr":0,"mode":"psychic"}`, Now: 1e21},
	{Name: "oid out of range", Method: "POST", Target: "/v1/read", Body: `{"client":0,"oid":1048576,"attr":0}`, Now: 1e21},
	{Name: "empty write", Method: "POST", Target: "/v1/write", Body: `{"oid":1,"attrs":null}`, Now: 1e21},
	{Name: "bad lease params", Method: "GET", Target: "/v1/lease?client=zero&oid=1&attr=0", Now: 1e21},
	{Name: "wrong method", Method: "GET", Target: "/v1/read", Now: 1e21},
}

// runWireCorpus replays wireRequests through a fresh handler over a real
// socket and returns each case with the reply filled in.
func runWireCorpus(t *testing.T) []wireCase {
	t.Helper()
	var now float64
	st, err := Open("memory", Config{Granularity: core.AttributeCaching, NumObjects: 200,
		FixedLease: 60, Clock: func() float64 { return now }})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(NewHandler(st, HTTPConfig{}))
	defer ts.Close()
	got := make([]wireCase, len(wireRequests))
	for i, wc := range wireRequests {
		now = wc.Now
		req, err := http.NewRequest(wc.Method, ts.URL+wc.Target, strings.NewReader(wc.Body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s: %v", wc.Name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", wc.Name, err)
		}
		wc.Status = resp.StatusCode
		wc.ContentType = resp.Header.Get("Content-Type")
		wc.ContentLength = resp.Header.Get("Content-Length")
		wc.Reply = string(body)
		got[i] = wc
	}
	return got
}

// TestWireGolden: every endpoint answers byte for byte what the corpus in
// testdata/wire.json recorded — status, Content-Type, Content-Length and
// body. -update rewrites the corpus; only do that for an intended wire
// change, and say so.
func TestWireGolden(t *testing.T) {
	got := runWireCorpus(t)
	const path = "testdata/wire.json"
	if *updateWire {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []wireCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("corpus has %d cases; the script runs %d (rerun with -update?)", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s:\n got %+v\nwant %+v", want[i].Name, got[i], want[i])
		}
	}
}

// encoderJSON is what json.Encoder.Encode writes for v, and its error.
func encoderJSON(v any) (string, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.String(), err
}

// FuzzReplyEncoding: the append encoders write what json.Encoder.Encode
// writes for any field values, and refuse what it refuses with its error.
func FuzzReplyEncoding(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1e-7, 1e21, -1.5, coherence.NoExpiry} {
		f.Add("hit", uint32(5), uint8(2), uint64(3), x, 12.5, false, true, uint8(2))
		f.Add("miss", uint32(0), uint8(255), uint64(0), 60.0, x, true, false, uint8(0))
	}
	f.Add("<\"\\\x00\u2028\xff>", uint32(math.MaxUint32), uint8(7), uint64(math.MaxUint64), math.NaN(), math.Inf(1), true, true, uint8(3))
	f.Fuzz(func(t *testing.T, state string, oid uint32, attr uint8, version uint64,
		expires, now float64, stale, fromOrigin bool, items uint8) {
		read := ReadResponse{State: state, OID: oid, Attr: attr, Version: version, ExpiresAt: expires,
			Error: stale, FromOrigin: fromOrigin, Now: now}
		write := WriteResponse{Version: version, Now: now}
		fetch := FetchResponse{Now: now} // items == 0 leaves Items nil
		if items > 0 {
			fetch.Items = make([]FetchedWire, items%4)
			for i := range fetch.Items {
				fetch.Items[i] = FetchedWire{OID: oid + uint32(i), Attr: attr, Version: version, ExpiresAt: expires}
			}
		}
		for _, c := range []struct {
			v   any
			enc func([]byte) ([]byte, error)
		}{{read, read.appendJSON}, {fetch, fetch.appendJSON}, {write, write.appendJSON}} {
			want, wantErr := encoderJSON(c.v)
			got, err := c.enc([]byte("prefix"))
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%T: error %v; encoding/json says %v", c.v, err, wantErr)
			}
			if err == nil && string(got) != "prefix"+want {
				t.Fatalf("%T:\n got %q\nwant %q", c.v, got, "prefix"+want)
			}
		}
	})
}

// FuzzHandlerBodies: any body to any POST endpoint of a memory store is a
// 200 or a 400 — never a 5xx, never a panic.
func FuzzHandlerBodies(f *testing.F) {
	st, err := Open("memory", Config{Granularity: core.AttributeCaching, NumObjects: 50, StorageObjects: 5})
	if err != nil {
		f.Fatalf("Open: %v", err)
	}
	h := NewHandler(st, HTTPConfig{})
	paths := []string{"/v1/read", "/v1/fetch", "/v1/write", "/v1/invalidate", "/v1/renew"}
	for i, body := range []string{
		`{"client":0,"oid":5,"attr":2,"mode":"probe"}`,
		`{"client":1,"reads":[{"oid":5,"attr":2},{"oid":5,"attr":2}]}`,
		`{"oid":5,"attrs":[2,3]}`,
		`{"client":-1,"oid":5,"attr":255}`,
		`{"client":0,"oid":5,"attr":2}`,
	} {
		f.Add(uint8(i), []byte(body))
	}
	f.Add(uint8(0), []byte(`{"client":-7,"oid":4294967295,"attr":255,"mode":""}`))
	f.Add(uint8(1), []byte(`{"client":2,"reads":null}`))
	f.Add(uint8(2), []byte(`{"oid":49,"attrs":[255,0]}`))
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := paths[int(endpoint)%len(paths)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("POST %s %q: %d %s", path, body, rec.Code, rec.Body)
		}
	})
}
