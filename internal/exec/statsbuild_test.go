package exec

import (
	"math"
	"math/rand"
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/stats"
)

// checkDistinct compares distinctInRange with the sort-based countDistinct
// on one column and reports which path the column took.
func checkDistinct(t *testing.T, name string, col []int64) (bitmap bool) {
	t.Helper()
	want := countDistinct(col)
	if len(col) == 0 {
		if got := distinctInRange(col, 0, 0); got != want {
			t.Fatalf("%s: distinctInRange = %d, countDistinct = %d", name, got, want)
		}
		return false
	}
	minV, maxV := col[0], col[0]
	for _, v := range col {
		minV, maxV = min(minV, v), max(maxV, v)
	}
	if got := distinctInRange(col, minV, maxV); got != want {
		t.Fatalf("%s: distinctInRange = %d, countDistinct = %d (min %d, max %d, rows %d)",
			name, got, want, minV, maxV, len(col))
	}
	return bitmapFits(uint64(maxV)-uint64(minV), len(col))
}

// TestDistinctInRangeMatchesSort is the property that lets statistics use
// the range bitmap: on random columns of every width from 1 to 2^62, on
// either side of zero, it counts exactly what sorting counts.
func TestDistinctInRangeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	paths := map[bool]int{}
	for i := 0; i < 2000; i++ {
		rows := 1 + rng.Intn(300)
		width := int64(1) << uint(rng.Intn(63)) // 1 .. 2^62
		width += rng.Int63n(width)              // and the values between powers
		if width > 1<<62 {
			width = 1 << 62
		}
		base := rng.Int63n(1<<62) - 1<<62 // negative bases included
		if i%2 == 0 {
			base = rng.Int63n(1 << 40)
		}
		col := make([]int64, rows)
		for j := range col {
			col[j] = base + rng.Int63n(width)
		}
		paths[checkDistinct(t, "random", col)]++
	}
	if paths[true] == 0 || paths[false] == 0 {
		t.Fatalf("random columns took one path only: %v", paths)
	}
}

// TestDistinctThreshold checks both sides of the bitmap threshold: a span
// of 64·rows−1 is counted with the bitmap, 64·rows by sorting, and both
// count exactly.
func TestDistinctThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, rows := range []int{2, 3, 64, 1000} {
		for _, base := range []int64{-1 << 40, -7, 0, 1 << 50} {
			for _, span := range []int64{64*int64(rows) - 1, 64 * int64(rows)} {
				col := make([]int64, rows)
				for j := range col {
					col[j] = base + rng.Int63n(span+1)
				}
				col[0], col[rows-1] = base, base+span
				bitmap := checkDistinct(t, "threshold", col)
				if want := span < 64*int64(rows); bitmap != want {
					t.Fatalf("rows %d span %d: bitmap path %v, want %v", rows, span, bitmap, want)
				}
			}
		}
	}
}

func TestDistinctEdgeColumns(t *testing.T) {
	checkDistinct(t, "empty", nil)
	if !checkDistinct(t, "single row", []int64{-42}) {
		t.Fatal("a single row should take the bitmap path")
	}
	if !checkDistinct(t, "all equal", []int64{9, 9, 9, 9}) {
		t.Fatal("an all-equal column should take the bitmap path")
	}
	if checkDistinct(t, "full range", []int64{math.MinInt64, math.MaxInt64}) {
		t.Fatal("{MinInt64, MaxInt64} must take the sort path")
	}
	if got := distinctInRange([]int64{math.MinInt64, math.MaxInt64}, math.MinInt64, math.MaxInt64); got != 2 {
		t.Fatalf("{MinInt64, MaxInt64}: %d distinct, want 2", got)
	}
}

// TestBuildColumnStatsFullRange builds statistics for a column whose value
// range exceeds MaxInt64. Taking the span as a signed difference wrapped it
// negative and indexed the histogram out of range.
func TestBuildColumnStatsFullRange(t *testing.T) {
	cs := buildColumnStats([]int64{math.MinInt64, 0, math.MaxInt64})
	if cs.Distinct != 3 || cs.Min != math.MinInt64 || cs.Max != math.MaxInt64 {
		t.Fatalf("stats = %+v", cs)
	}
	want := make([]int64, histogramBuckets)
	want[0], want[histogramBuckets/2], want[histogramBuckets-1] = 1, 1, 1
	for b := range want {
		if cs.Histogram[b] != want[b] {
			t.Fatalf("histogram = %v, want %v", cs.Histogram, want)
		}
	}
}

// catalogSink keeps BenchmarkBuildCatalog's result live.
var catalogSink *stats.Catalog

// BenchmarkBuildCatalog derives the true statistics of TPC-DS at scale 1,
// the largest schema a deployment builds.
func BenchmarkBuildCatalog(b *testing.B) {
	bm := benchmarks.TPCDS()
	data := bm.Generate(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		catalogSink = BuildCatalog(bm.Schema, data)
	}
}
