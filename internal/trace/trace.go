// Package trace provides structured per-query tracing for simulations:
// every completed query can be emitted as one record, giving an auditable,
// machine-readable account of a run (for debugging the simulator, plotting
// distributions, or validating against the aggregate metrics).
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/metrics"
)

// QueryRecord describes one completed client query. Its read counts are
// the per-read outcomes counted by ReadCounts.Count; Reads is set when the
// record is made, so the counts of a finished record sum to it.
type QueryRecord struct {
	ClientID    int
	Index       uint64  // client-local query sequence number
	IssuedAt    float64 // scheduled arrival (virtual seconds)
	CompletedAt float64
	Reads       int // attribute reads performed
	metrics.ReadCounts
	Remote       bool
	Disconnected bool
	RequestBytes int
	ReplyBytes   int
	// Reliability-layer fields (unreliable channels, DESIGN.md §9); all
	// zero when no fault model is attached.
	Retries  int  // retransmissions the round trip needed
	TimedOut bool // the round trip exhausted its retries entirely
}

// ResponseTime returns the query's response time.
func (r QueryRecord) ResponseTime() float64 { return r.CompletedAt - r.IssuedAt }

// Tracer consumes query records. Implementations must tolerate being
// called from the (single-threaded) simulation loop.
type Tracer interface {
	Query(r QueryRecord)
}

// Collector keeps every record in memory — for tests and small analyses.
type Collector struct {
	mu      sync.Mutex
	Records []QueryRecord
}

// Query implements Tracer.
func (c *Collector) Query(r QueryRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Records = append(c.Records, r)
}

// Len returns the number of collected records.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.Records)
}

// CSVHeader is the column layout of CSVTracer.
var CSVHeader = []string{
	"client", "index", "issued_at", "completed_at", "response_s",
	"reads", "hits", "stale", "unavailable", "errors",
	"remote", "disconnected", "request_bytes", "reply_bytes",
	"retries", "degraded", "timed_out",
}

// CSVTracer streams records as CSV rows.
type CSVTracer struct {
	w      *csv.Writer
	wroteH bool
	err    error
}

// NewCSV returns a tracer writing CSV (with header) to w.
func NewCSV(w io.Writer) *CSVTracer {
	return &CSVTracer{w: csv.NewWriter(w)}
}

// Query implements Tracer.
func (t *CSVTracer) Query(r QueryRecord) {
	if t.err != nil {
		return
	}
	if !t.wroteH {
		t.wroteH = true
		if err := t.w.Write(CSVHeader); err != nil {
			t.err = err
			return
		}
	}
	row := []string{
		strconv.Itoa(r.ClientID),
		strconv.FormatUint(r.Index, 10),
		fmt.Sprintf("%.3f", r.IssuedAt),
		fmt.Sprintf("%.3f", r.CompletedAt),
		fmt.Sprintf("%.4f", r.ResponseTime()),
		strconv.Itoa(r.Reads),
		strconv.FormatUint(r.Hits, 10),
		strconv.FormatUint(r.Stale, 10),
		strconv.FormatUint(r.Unavailable, 10),
		strconv.FormatUint(r.Errors, 10),
		strconv.FormatBool(r.Remote),
		strconv.FormatBool(r.Disconnected),
		strconv.Itoa(r.RequestBytes),
		strconv.Itoa(r.ReplyBytes),
		strconv.Itoa(r.Retries),
		strconv.FormatUint(r.Degraded, 10),
		strconv.FormatBool(r.TimedOut),
	}
	t.err = t.w.Write(row)
}

// Flush drains buffered rows and returns the first error encountered.
func (t *CSVTracer) Flush() error {
	t.w.Flush()
	if t.err != nil {
		return t.err
	}
	return t.w.Error()
}
