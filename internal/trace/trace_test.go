package trace

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func sample() QueryRecord {
	return QueryRecord{
		ClientID: 3, Index: 7, IssuedAt: 100, CompletedAt: 102.5,
		Reads: 60, ReadCounts: metrics.ReadCounts{Hits: 40, Stale: 2, Degraded: 1, Unavailable: 1, Fetched: 17, Errors: 3},
		Remote: true, Disconnected: false,
		RequestBytes: 27, ReplyBytes: 512,
		Retries: 3, TimedOut: true,
	}
}

func TestResponseTime(t *testing.T) {
	if rt := sample().ResponseTime(); rt != 2.5 {
		t.Fatalf("ResponseTime = %v", rt)
	}
}

func TestCollector(t *testing.T) {
	var c Collector
	c.Query(sample())
	c.Query(sample())
	if c.Len() != 2 || len(c.Records) != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Records[0].ClientID != 3 {
		t.Fatal("record mangled")
	}
}

func TestCSVTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewCSV(&buf)
	tr.Query(sample())
	tr.Query(sample())
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + 2 records
		t.Fatalf("%d rows", len(rows))
	}
	if len(rows[0]) != len(CSVHeader) {
		t.Fatalf("header has %d columns, want %d", len(rows[0]), len(CSVHeader))
	}
	if rows[1][0] != "3" || rows[1][5] != "60" || rows[1][10] != "true" {
		t.Fatalf("row content: %v", rows[1])
	}
	if !strings.Contains(rows[1][4], "2.5") {
		t.Fatalf("response column: %q", rows[1][4])
	}
}

func TestCSVTracerWriterError(t *testing.T) {
	tr := NewCSV(failingWriter{})
	tr.Query(sample())
	if err := tr.Flush(); err == nil {
		t.Fatal("expected error from failing writer")
	}
	// Further records are dropped without panicking.
	tr.Query(sample())
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, errBoom
}

var errBoom = &csvError{"boom"}

type csvError struct{ s string }

func (e *csvError) Error() string { return e.s }

func TestRoundTripCSV(t *testing.T) {
	var buf bytes.Buffer
	tr := NewCSV(&buf)
	recs := []QueryRecord{sample(), {ClientID: 1, Index: 2, IssuedAt: 7200,
		CompletedAt: 7201, Reads: 10, ReadCounts: metrics.ReadCounts{Hits: 10}}}
	for _, r := range recs {
		tr.Query(r)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 2 {
		t.Fatalf("parsed %d records", len(parsed))
	}
	if parsed[0] != recs[0] || parsed[1] != recs[1] {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", parsed, recs)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("bogus,header\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	head := strings.Join(CSVHeader, ",")
	if _, err := ReadCSV(strings.NewReader(head + "\n1,2,x,4,5,6,7,8,9,10,true,false,1,2\n")); err == nil {
		t.Fatal("bad float accepted")
	}
	if _, err := ReadCSV(strings.NewReader(head + "\n1,2,3,4,5,6,7,8,9,10,true,false,1,2,0,0,false\n")); err == nil {
		t.Fatal("a row with more outcomes than reads accepted")
	}
	if _, err := ReadCSV(strings.NewReader(head + "\n1,2,3,4,5,10,1,1,0,0,true,false,1,2,0,2,false\n")); err == nil {
		t.Fatal("a row with more degraded than stale reads accepted")
	}
	recs, err := ReadCSV(strings.NewReader(""))
	if err != nil || recs != nil {
		t.Fatalf("empty input: %v, %v", recs, err)
	}
}

func TestAnalyze(t *testing.T) {
	recs := []QueryRecord{
		{ClientID: 0, IssuedAt: 0, CompletedAt: 2, Reads: 10, ReadCounts: metrics.ReadCounts{Hits: 5, Fetched: 3, Air: 1, Peer: 1, Errors: 1},
			Remote: true, RequestBytes: 100, ReplyBytes: 400},
		{ClientID: 0, IssuedAt: 3600, CompletedAt: 3601, Reads: 10, ReadCounts: metrics.ReadCounts{Hits: 10}},
		{ClientID: 1, IssuedAt: 10, CompletedAt: 16, Reads: 10, ReadCounts: metrics.ReadCounts{Unavailable: 2, Stale: 8}, Disconnected: true},
	}
	a := Analyze(recs)
	if a.Queries != 3 || a.Total() != 30 || a.Hits != 15 || a.Remote != 1 {
		t.Fatalf("counts: %+v", a)
	}
	if a.HitRatio() != 0.5 {
		t.Fatalf("HitRatio = %v", a.HitRatio())
	}
	// Errors over served reads: 30 reads, 2 of them unavailable.
	if a.ErrorRate() != 1.0/28 {
		t.Fatalf("ErrorRate = %v", a.ErrorRate())
	}
	if a.Response.Mean() != 3 {
		t.Fatalf("mean response = %v", a.Response.Mean())
	}
	if len(a.PerClient) != 2 || a.PerClient[0].Count() != 2 {
		t.Fatal("per-client breakdown wrong")
	}
	if a.PerHour[0].Count() != 2 || a.PerHour[1].Count() != 1 {
		t.Fatal("per-hour breakdown wrong")
	}
	if a.RequestBytes != 100 || a.ReplyBytes != 400 {
		t.Fatal("wire accounting wrong")
	}
	var report bytes.Buffer
	a.WriteReport(&report)
	if !strings.Contains(report.String(), "per client") {
		t.Fatal("report missing sections")
	}
	// The chart lists each non-empty response-time bucket, bar included.
	if n := len(a.ResponseHist.Buckets()); n == 0 || strings.Count(report.String(), " #") != n {
		t.Fatalf("chart shows %d bars for %d non-empty buckets:\n%s", strings.Count(report.String(), " #"), n, report.String())
	}
}

func TestCountOutcomes(t *testing.T) {
	rec := QueryRecord{Reads: 9}
	for _, o := range []metrics.Outcome{
		{Kind: metrics.FreshHit}, {Kind: metrics.FreshHit, Error: true},
		{Kind: metrics.StaleServed, Error: true}, {Kind: metrics.Unavailable},
		{Kind: metrics.Fetched}, {Kind: metrics.FromAir},
		{Kind: metrics.FromPeer, Error: true}, {Kind: metrics.Degraded},
		{Kind: metrics.Degraded, Error: true},
	} {
		rec.Count(o)
	}
	want := QueryRecord{Reads: 9, ReadCounts: metrics.ReadCounts{
		Hits: 2, Stale: 3, Degraded: 2, Unavailable: 1, Fetched: 1, Air: 1, Peer: 1, Errors: 4}}
	if rec != want || rec.Total() != uint64(rec.Reads) {
		t.Fatalf("counted %+v, want %+v", rec, want)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil)
	if a.HitRatio() != 0 || a.ErrorRate() != 0 || a.Queries != 0 {
		t.Fatal("empty analysis not zero")
	}
}
