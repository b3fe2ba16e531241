package experiment

import (
	"fmt"
	"strings"
)

// Table is a simple aligned text table for experiment output; the rows
// mirror the series of the paper's figures so EXPERIMENTS.md can be
// regenerated mechanically.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends one row; cell count should match the header.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Addf appends one row of formatted cells: each argument is rendered with
// %v except float64, which gets %.4g.
func (t *Table) Addf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Report bundles an experiment's raw results and formatted tables. Notes
// carry measured, machine-dependent facts (wall-clock storage latencies,
// disk bytes) that belong next to the tables but must stay out of the
// deterministic table hashes — report.Write hashes only Tables. Err is set,
// and no run was executed, when a config of the sweep failed Validate; the
// tables are then empty shells.
type Report struct {
	Name    string
	Results []Result
	Tables  []*Table
	Notes   []string
	Err     error
}

// String renders all tables, then any notes.
func (r *Report) String() string {
	var b strings.Builder
	for i, t := range r.Tables {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(t.String())
	}
	for i, n := range r.Notes {
		if i == 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// pct formats a ratio as a percentage with one decimal.
func pct(x float64) string { return fmt.Sprintf("%.1f", 100*x) }

// secs formats a duration in seconds with three decimals.
func secs(x float64) string { return fmt.Sprintf("%.3f", x) }
