// Package experiments regenerates every table and figure of the paper's
// evaluation (§7). Each experiment returns structured Results that render
// as aligned text tables printing the same rows/series the paper reports;
// one registry (registry.go) lists them, and cmd/expdriver is the CLI
// front end.
package experiments

import (
	"fmt"
	"strings"
)

// Result is one rendered table or figure series.
type Result struct {
	// ID is the experiment's registry id, which DESIGN.md's experiment
	// index lists (e.g. "fig3a"); Run and RunAll set it.
	ID string
	// Title describes the paper artifact.
	Title string
	// Header and Rows hold the table body.
	Header []string
	Rows   [][]string
	// Notes carries commentary (suggested partitionings, caveats).
	Notes []string
}

// AddRow appends a row of stringified cells.
func (r *Result) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmtFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	r.Rows = append(r.Rows, row)
}

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fmtFloat renders measurements compactly.
func fmtFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// Render formats the result as an aligned text table.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
