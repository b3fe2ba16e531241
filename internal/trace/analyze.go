package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Analysis summarizes a set of query records (typically parsed back from a
// CSV trace): the run-level metrics plus per-client and per-hour
// breakdowns.
type Analysis struct {
	Queries int
	metrics.ReadCounts
	Remote int

	Response stats.Summary
	// ResponseHist buckets response times logarithmically from 10 ms to
	// 1000 s — cache hits through downlink backlog on one chart.
	ResponseHist *obs.Histogram

	PerClient map[int]*stats.Summary // response time per client
	PerHour   [24]stats.Summary      // response time by hour of day

	RequestBytes uint64
	ReplyBytes   uint64
}

// Analyze folds records into an Analysis.
func Analyze(records []QueryRecord) *Analysis {
	a := &Analysis{
		PerClient:    make(map[int]*stats.Summary),
		ResponseHist: obs.New(0).Histogram("response_s", 0.01, 1000),
	}
	for _, r := range records {
		a.Queries++
		a.Add(r.ReadCounts)
		if r.Remote {
			a.Remote++
		}
		rt := r.ResponseTime()
		a.Response.Add(rt)
		a.ResponseHist.Observe(rt)
		cs := a.PerClient[r.ClientID]
		if cs == nil {
			cs = &stats.Summary{}
			a.PerClient[r.ClientID] = cs
		}
		cs.Add(rt)
		hour := int(r.IssuedAt/3600) % 24
		if hour >= 0 && hour < 24 {
			a.PerHour[hour].Add(rt)
		}
		a.RequestBytes += uint64(r.RequestBytes)
		a.ReplyBytes += uint64(r.ReplyBytes)
	}
	return a
}

// WriteReport renders a human-readable summary.
func (a *Analysis) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "queries        %d (%d remote)\n", a.Queries, a.Remote)
	fmt.Fprintf(w, "reads          %d  hit %.1f%%  stale %d  unavailable %d  err %.2f%%\n",
		a.Total(), 100*a.HitRatio(), a.Stale, a.Unavailable, 100*a.ErrorRate())
	fmt.Fprintf(w, "response       mean %.3fs  p50 %.3fs  p95 %.3fs  p99 %.3fs  max %.3fs\n",
		a.Response.Mean(), a.Response.Percentile(50), a.Response.Percentile(95),
		a.Response.Percentile(99), a.Response.Max())
	fmt.Fprintf(w, "wire           %d request bytes, %d reply bytes\n",
		a.RequestBytes, a.ReplyBytes)

	fmt.Fprintf(w, "\nresponse-time distribution (s):\n")
	writeBuckets(w, a.ResponseHist.Buckets(), 40)

	ids := make([]int, 0, len(a.PerClient))
	for id := range a.PerClient {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Fprintf(w, "\nper client:\n")
	for _, id := range ids {
		s := a.PerClient[id]
		fmt.Fprintf(w, "  client %-3d  %5d queries  mean %.3fs  p95 %.3fs\n",
			id, s.Count(), s.Mean(), s.Percentile(95))
	}
	fmt.Fprintf(w, "\nby hour of day:\n")
	for h := 0; h < 24; h++ {
		s := &a.PerHour[h]
		if s.Count() == 0 {
			continue
		}
		fmt.Fprintf(w, "  %02d:00  %5d queries  mean %.3fs\n", h, s.Count(), s.Mean())
	}
}

// writeBuckets renders histogram buckets as an ASCII bar chart, one line
// per bucket, bars scaled to width characters at the modal bucket.
func writeBuckets(w io.Writer, buckets []obs.Bucket, width int) {
	var max uint64
	for _, b := range buckets {
		if b.Count > max {
			max = b.Count
		}
	}
	for _, b := range buckets {
		var label string
		switch {
		case math.IsInf(b.Lo, -1):
			label = fmt.Sprintf("%14s", fmt.Sprintf("< %.3g", b.Hi))
		case math.IsInf(b.Hi, 1):
			label = fmt.Sprintf("%14s", fmt.Sprintf(">= %.3g", b.Lo))
		default:
			label = fmt.Sprintf("%6.3g-%-7.3g", b.Lo, b.Hi)
		}
		bar := strings.Repeat("#", int(float64(width)*float64(b.Count)/float64(max)))
		fmt.Fprintf(w, "%s  %7d %s\n", label, b.Count, bar)
	}
}

// ReadCSV parses records from a CSV trace written by CSVTracer.
func ReadCSV(r io.Reader) ([]QueryRecord, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: parsing CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	if len(rows[0]) != len(CSVHeader) || rows[0][0] != CSVHeader[0] {
		return nil, fmt.Errorf("trace: unrecognized header %v", rows[0])
	}
	out := make([]QueryRecord, 0, len(rows)-1)
	for i, row := range rows[1:] {
		rec, err := parseRow(row)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", i+2, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

func parseRow(row []string) (QueryRecord, error) {
	var rec QueryRecord
	if len(row) != len(CSVHeader) {
		return rec, fmt.Errorf("%d columns, want %d", len(row), len(CSVHeader))
	}
	var err error
	geti := func(s string) int {
		if err != nil {
			return 0
		}
		var v int
		v, err = strconv.Atoi(s)
		return v
	}
	getf := func(s string) float64 {
		if err != nil {
			return 0
		}
		var v float64
		v, err = strconv.ParseFloat(s, 64)
		return v
	}
	getb := func(s string) bool {
		if err != nil {
			return false
		}
		var v bool
		v, err = strconv.ParseBool(s)
		return v
	}
	getu := func(s string) uint64 {
		if err != nil {
			return 0
		}
		var v uint64
		v, err = strconv.ParseUint(s, 10, 64)
		return v
	}
	rec.ClientID = geti(row[0])
	rec.Index = getu(row[1])
	rec.IssuedAt = getf(row[2])
	rec.CompletedAt = getf(row[3])
	_ = getf(row[4]) // response_s is derived; ignored on read
	rec.Reads = geti(row[5])
	rec.Hits = getu(row[6])
	rec.Stale = getu(row[7])
	rec.Unavailable = getu(row[8])
	rec.Errors = getu(row[9])
	rec.Remote = getb(row[10])
	rec.Disconnected = getb(row[11])
	rec.RequestBytes = geti(row[12])
	rec.ReplyBytes = geti(row[13])
	rec.Retries = geti(row[14])
	rec.Degraded = getu(row[15])
	rec.TimedOut = getb(row[16])
	if err != nil {
		return rec, err
	}
	// The CSV does not split the reads served over the air: a parsed
	// record counts every read that is not a hit, stale or unavailable as
	// fetched, which keeps its counts summing to Reads.
	local := rec.Hits + rec.Stale + rec.Unavailable
	if rec.Reads < 0 || uint64(rec.Reads) < local {
		return rec, fmt.Errorf("%d reads, fewer than its %d hit, stale and unavailable ones", rec.Reads, local)
	}
	if rec.Degraded > rec.Stale {
		return rec, fmt.Errorf("%d degraded reads, more than its %d stale ones", rec.Degraded, rec.Stale)
	}
	rec.Fetched = uint64(rec.Reads) - local
	return rec, nil
}
