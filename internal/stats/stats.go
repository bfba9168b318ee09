// Package stats holds table- and column-level statistics and selectivity
// estimation. Two kinds of statistics flow through the system:
//
//   - true statistics, maintained by the execution engine from the actual
//     data, feeding the "physics" of simulated query runtimes, and
//   - estimated statistics, the view of a query optimizer: derived from the
//     true statistics at ANALYZE time, then possibly stale after bulk
//     updates, and perturbed by a deterministic per-query error that grows
//     with the number of joins (following the observation of Leis et al.
//     that optimizer estimates degrade on complex queries).
//
// The Minimum-Optimizer baseline of the paper consumes only estimated
// statistics; the network-centric cost model of the offline training phase
// consumes plain metadata (row counts and widths).
package stats

import (
	"fmt"
	"math"
)

// ColumnStats summarizes the value distribution of a single column.
type ColumnStats struct {
	// Distinct is the number of distinct values.
	Distinct int64
	// Min and Max bound the value domain.
	Min, Max int64
	// Histogram holds equi-width bucket counts over [Min, Max]; it may be
	// nil, in which case a uniform distribution is assumed.
	Histogram []int64
}

// TableStats summarizes one table.
type TableStats struct {
	// Rows is the table cardinality.
	Rows int64
	// RowWidth is the width of one row in bytes.
	RowWidth int
	// Columns maps column name to its statistics. Columns without an entry
	// are treated as having Rows distinct values (i.e. key-like).
	Columns map[string]*ColumnStats
}

// Catalog maps table names to statistics. It is the unit handed to cost
// models and planners.
type Catalog struct {
	Tables map[string]*TableStats
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{Tables: make(map[string]*TableStats)}
}

// Clone deep-copies the catalog. The execution engine clones its true
// statistics into the estimated catalog at ANALYZE time.
func (c *Catalog) Clone() *Catalog {
	out := NewCatalog()
	for name, ts := range c.Tables {
		cp := &TableStats{Rows: ts.Rows, RowWidth: ts.RowWidth, Columns: make(map[string]*ColumnStats, len(ts.Columns))}
		for col, cs := range ts.Columns {
			h := make([]int64, len(cs.Histogram))
			copy(h, cs.Histogram)
			hc := h
			if cs.Histogram == nil {
				hc = nil
			}
			cp.Columns[col] = &ColumnStats{Distinct: cs.Distinct, Min: cs.Min, Max: cs.Max, Histogram: hc}
		}
		out.Tables[name] = cp
	}
	return out
}

// Table returns statistics for the named table, or nil.
func (c *Catalog) Table(name string) *TableStats {
	return c.Tables[name]
}

// MustTable returns statistics for the named table and panics if absent.
func (c *Catalog) MustTable(name string) *TableStats {
	ts := c.Tables[name]
	if ts == nil {
		panic(fmt.Sprintf("stats: no statistics for table %q", name))
	}
	return ts
}

// SetTable registers statistics for a table.
func (c *Catalog) SetTable(name string, ts *TableStats) {
	c.Tables[name] = ts
}

// Rows returns the cardinality of the named table (0 if unknown).
func (c *Catalog) Rows(table string) int64 {
	if ts := c.Tables[table]; ts != nil {
		return ts.Rows
	}
	return 0
}

// Bytes returns the total size of the named table in bytes (0 if unknown).
func (c *Catalog) Bytes(table string) int64 {
	if ts := c.Tables[table]; ts != nil {
		return ts.Rows * int64(ts.RowWidth)
	}
	return 0
}

// Column returns statistics for table.column; if the column has no recorded
// statistics, key-like statistics (Distinct == Rows) are synthesized.
func (c *Catalog) Column(table, column string) ColumnStats {
	ts := c.Tables[table]
	if ts == nil {
		return ColumnStats{Distinct: 1}
	}
	if cs := ts.Columns[column]; cs != nil {
		return *cs
	}
	d := ts.Rows
	if d < 1 {
		d = 1
	}
	return ColumnStats{Distinct: d, Min: 0, Max: d - 1}
}

// Distinct returns the distinct count of table.column (>= 1).
func (c *Catalog) Distinct(table, column string) int64 {
	d := c.Column(table, column).Distinct
	if d < 1 {
		return 1
	}
	return d
}

// CompareOp enumerates the comparison operators supported by predicates.
type CompareOp int

const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpBetween // inclusive range, Args[0] <= v <= Args[1]
	OpIn      // v in Args
)

// String renders the operator in SQL-ish syntax.
func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpBetween:
		return "BETWEEN"
	case OpIn:
		return "IN"
	}
	return fmt.Sprintf("CompareOp(%d)", int(op))
}

// RangeOf maps a comparison to the inclusive interval [lo, hi] of values it
// accepts; neg reports that it accepts the complement instead (OpNe). It is
// the single definition of range-predicate semantics shared by the
// selectivity estimator and the execution engine's scan filters. ok is
// false for OpIn and for the wrong number of arguments. A comparison no
// value satisfies (x < MinInt64, x > MaxInt64, BETWEEN lo AND hi with
// lo > hi) yields an empty interval, lo > hi.
func RangeOf(op CompareOp, args []int64) (lo, hi int64, neg, ok bool) {
	if op == OpBetween {
		if len(args) != 2 {
			return 0, 0, false, false
		}
		return args[0], args[1], false, true
	}
	if len(args) != 1 {
		return 0, 0, false, false
	}
	a := args[0]
	switch op {
	case OpEq:
		return a, a, false, true
	case OpNe:
		return a, a, true, true
	case OpLt:
		if a == math.MinInt64 {
			return 1, 0, false, true
		}
		return math.MinInt64, a - 1, false, true
	case OpLe:
		return math.MinInt64, a, false, true
	case OpGt:
		if a == math.MaxInt64 {
			return 1, 0, false, true
		}
		return a + 1, math.MaxInt64, false, true
	case OpGe:
		return a, math.MaxInt64, false, true
	}
	return 0, 0, false, false
}

// Selectivity estimates the fraction of rows of table.column that satisfy
// the predicate (op, args), using histograms when available and uniformity
// assumptions otherwise. The result is clamped to [0, 1].
func (c *Catalog) Selectivity(table, column string, op CompareOp, args []int64) float64 {
	cs := c.Column(table, column)
	switch op {
	case OpEq:
		return clamp01(1 / float64(maxi64(cs.Distinct, 1)))
	case OpNe:
		return clamp01(1 - 1/float64(maxi64(cs.Distinct, 1)))
	case OpIn:
		return clamp01(float64(len(args)) / float64(maxi64(cs.Distinct, 1)))
	case OpLt, OpLe, OpGt, OpGe, OpBetween:
		lo, hi, _, ok := RangeOf(op, args)
		if !ok {
			return 1
		}
		return cs.rangeFraction(lo, hi)
	}
	return 1
}

// rangeFraction estimates the fraction of values in [lo, hi].
func (cs ColumnStats) rangeFraction(lo, hi int64) float64 {
	if hi < lo {
		return 0
	}
	if lo <= cs.Min && hi >= cs.Max {
		return 1
	}
	if cs.Max <= cs.Min {
		if lo <= cs.Min && cs.Min <= hi {
			return 1
		}
		return 0
	}
	lo = maxi64(lo, cs.Min)
	hi = mini64(hi, cs.Max)
	if hi < lo {
		return 0
	}
	if len(cs.Histogram) == 0 {
		return clamp01(float64(hi-lo+1) / float64(cs.Max-cs.Min+1))
	}
	// Histogram path: sum full buckets, interpolate partial ones.
	total := int64(0)
	for _, b := range cs.Histogram {
		total += b
	}
	if total == 0 {
		return 0
	}
	nb := len(cs.Histogram)
	width := float64(cs.Max-cs.Min+1) / float64(nb)
	sum := 0.0
	for i := 0; i < nb; i++ {
		bLo := float64(cs.Min) + float64(i)*width
		bHi := bLo + width - 1
		oLo := math.Max(bLo, float64(lo))
		oHi := math.Min(bHi, float64(hi))
		if oHi < oLo {
			continue
		}
		frac := (oHi - oLo + 1) / width
		if frac > 1 {
			frac = 1
		}
		sum += frac * float64(cs.Histogram[i])
	}
	return clamp01(sum / float64(total))
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func mini64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
