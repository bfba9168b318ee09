// Package exec implements the distributed query-execution engine that stands
// in for Postgres-XL ("Disk" flavor) and the commercial in-memory System-X
// ("Memory" flavor) of the paper's evaluation. It physically partitions or
// replicates materialized tuples across N simulated nodes, plans joins with
// *estimated* statistics (which can be stale after bulk updates, and whose
// externally exposed costs carry join-count-proportional noise), executes
// real hash joins with real data movement, and charges simulated seconds
// from a hardware profile. Skew, co-location wins, broadcast-vs-shuffle
// trade-offs and straggler effects all emerge from the data rather than
// being scripted.
package exec

import (
	"math/bits"
	"slices"

	"partadvisor/internal/relation"
	"partadvisor/internal/schema"
	"partadvisor/internal/stats"
)

// histogramBuckets is the resolution of engine-built column histograms.
const histogramBuckets = 32

// BuildTableStats derives true statistics for one table from its data.
func BuildTableStats(rel *relation.Relation, t *schema.Table) *stats.TableStats {
	ts := &stats.TableStats{
		Rows:     int64(rel.Rows()),
		RowWidth: t.RowWidth(),
		Columns:  make(map[string]*stats.ColumnStats, len(t.Attributes)),
	}
	for _, a := range t.Attributes {
		if !rel.HasCol(a.Name) {
			continue
		}
		ts.Columns[a.Name] = buildColumnStats(rel.Col(a.Name))
	}
	return ts
}

// buildColumnStats computes distinct count, bounds and an equi-width
// histogram for one column. Spans and offsets are taken in uint64, so a
// column whose range exceeds MaxInt64 buckets like any other.
func buildColumnStats(col []int64) *stats.ColumnStats {
	if len(col) == 0 {
		return &stats.ColumnStats{Distinct: 0}
	}
	minV, maxV := col[0], col[0]
	for _, v := range col {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	distinct := distinctInRange(col, minV, maxV)
	cs := &stats.ColumnStats{Distinct: distinct, Min: minV, Max: maxV}
	if maxV > minV {
		h := make([]int64, histogramBuckets)
		span := float64(uint64(maxV)-uint64(minV)) + 1
		for _, v := range col {
			b := int(float64(uint64(v)-uint64(minV)) / span * histogramBuckets)
			if b >= histogramBuckets {
				b = histogramBuckets - 1
			}
			h[b]++
		}
		cs.Histogram = h
	}
	return cs
}

// bitmapFits reports whether a column of rows values spanning
// [min, min+span] is counted with a range bitmap: span/64+1 words, never
// more than the rows-long sorted copy countDistinct would make.
func bitmapFits(span uint64, rows int) bool {
	return span < 64*uint64(rows)
}

// distinctInRange counts the exact distinct values of a column whose bounds
// are known. A dense column sets one bit per value over [minV, maxV] and
// sums the bits; a sparse one falls back to countDistinct.
func distinctInRange(col []int64, minV, maxV int64) int64 {
	span := uint64(maxV) - uint64(minV)
	if !bitmapFits(span, len(col)) {
		return countDistinct(col)
	}
	set := make([]uint64, span/64+1)
	for _, v := range col {
		off := uint64(v) - uint64(minV)
		set[off/64] |= 1 << (off % 64)
	}
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return int64(n)
}

// countDistinct counts exact distinct values by sorting a copy of the
// column: the path for columns too sparse for distinctInRange's bitmap.
func countDistinct(col []int64) int64 {
	if len(col) == 0 {
		return 0
	}
	sorted := slices.Clone(col)
	slices.Sort(sorted)
	n := int64(1)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			n++
		}
	}
	return n
}

// BuildCatalog derives true statistics for a full dataset.
func BuildCatalog(sch *schema.Schema, data map[string]*relation.Relation) *stats.Catalog {
	cat := stats.NewCatalog()
	for _, t := range sch.Tables {
		if rel := data[t.Name]; rel != nil {
			cat.SetTable(t.Name, BuildTableStats(rel, t))
		}
	}
	return cat
}
