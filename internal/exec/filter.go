package exec

import (
	"math"

	"partadvisor/internal/sqlparse"
	"partadvisor/internal/stats"
)

// scanFilter is one filter predicate compiled for the column-at-a-time
// scan (see executor.scan). It has one of two forms:
//
//   - a range: v passes when lo <= v <= hi, tested as the one unsigned
//     compare uint64(v)-lo <= span with span = hi-lo (both wrapped to
//     uint64, so the full int64 domain is span = MaxUint64);
//   - an IN list (in != nil): v passes when it equals one of in.
//
// neg (0 or 1) complements either form. A filter no value satisfies
// compiles to the complement of the full range.
type scanFilter struct {
	src      *sqlparse.Filter // the filter as analyzed (estScanRows reads it)
	lo, span uint64
	in       []int64
	neg      int
}

// compileFilter compiles one analyzed filter. The range semantics are
// stats.RangeOf's, the one definition the selectivity estimator shares.
func compileFilter(f *sqlparse.Filter) scanFilter {
	c := scanFilter{src: f, neg: b2i(f.Neg)}
	if f.Op == stats.OpIn && len(f.Args) > 0 {
		c.in = f.Args
		return c
	}
	lo, hi, neg, ok := stats.RangeOf(f.Op, f.Args)
	if !ok || lo > hi {
		// Matches nothing (IN (), a malformed arity, an empty range):
		// the complement of the full range.
		lo, hi, neg = math.MinInt64, math.MaxInt64, true
	}
	c.lo, c.span = uint64(lo), uint64(hi)-uint64(lo)
	c.neg ^= b2i(neg)
	return c
}

// first filters a whole column: it writes the ids of the rows that pass
// to sel (len(sel) >= len(col)) in ascending order and returns how many
// there are. Every row id is written and the cursor advanced by the
// predicate's 0/1 result, so the loop has no data-dependent branch.
func (f *scanFilter) first(col []int64, sel []int32) int {
	n, neg := 0, f.neg
	if f.in != nil {
		in := f.in
		for i, v := range col {
			sel[n] = int32(i)
			n += inList(v, in) ^ neg
		}
		return n
	}
	lo, span := f.lo, f.span
	for i, v := range col {
		sel[n] = int32(i)
		n += b2i(uint64(v)-lo <= span) ^ neg
	}
	return n
}

// refine keeps the row ids of sel whose value in col passes, compacting
// sel in place (the write cursor never passes the read cursor, so order
// is kept), and returns how many remain. Branch-free like first.
func (f *scanFilter) refine(col []int64, sel []int32) int {
	n, neg := 0, f.neg
	if f.in != nil {
		in := f.in
		for _, row := range sel {
			sel[n] = row
			n += inList(col[row], in) ^ neg
		}
		return n
	}
	lo, span := f.lo, f.span
	for _, row := range sel {
		sel[n] = row
		n += b2i(uint64(col[row])-lo <= span) ^ neg
	}
	return n
}

// inList is 1 when v equals one of in, else 0. The lists are a few
// values long, so a linear compare beats any lookup structure.
func inList(v int64, in []int64) int {
	m := 0
	for _, a := range in {
		m |= b2i(v == a)
	}
	return m
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
