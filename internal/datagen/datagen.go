// Package datagen provides deterministic synthetic data generators used to
// materialize the benchmark databases at "repro scale" (ratio-preserving
// row counts small enough for a laptop, documented in DESIGN.md). All
// generators are seeded, so every experiment is reproducible bit-for-bit.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"partadvisor/internal/relation"
	"partadvisor/internal/valenc"
)

// Gen wraps a seeded RNG with column-generator helpers.
type Gen struct {
	rng *rand.Rand
}

// New returns a generator with the given seed.
func New(seed int64) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed))}
}

// Rand exposes the underlying RNG for ad-hoc draws.
func (g *Gen) Rand() *rand.Rand { return g.rng }

// Seq returns 0, 1, ..., n-1 — surrogate keys.
func (g *Gen) Seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// Uniform returns n values uniform in [0, max).
func (g *Gen) Uniform(n int, max int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = g.rng.Int63n(max)
	}
	return out
}

// UniformRange returns n values uniform in [lo, hi].
func (g *Gen) UniformRange(n int, lo, hi int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = lo + g.rng.Int63n(hi-lo+1)
	}
	return out
}

// FK returns n foreign-key values drawn uniformly from refKeys.
func (g *Gen) FK(n int, refKeys []int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = refKeys[g.rng.Intn(len(refKeys))]
	}
	return out
}

// Mod returns n values i % m — round-robin category assignment (e.g. the
// 10 districts per warehouse of TPC-C).
func (g *Gen) Mod(n int, m int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i) % m
	}
	return out
}

// Dates returns n yyyymmdd values uniform over the year range [loYear,
// hiYear] (using 28-day months to stay valid).
func (g *Gen) Dates(n int, loYear, hiYear int) []int64 {
	out := make([]int64, n)
	for i := range out {
		y := loYear + g.rng.Intn(hiYear-loYear+1)
		m := 1 + g.rng.Intn(12)
		d := 1 + g.rng.Intn(28)
		out[i] = valenc.EncodeDate(y, m, d)
	}
	return out
}

// DateDim fills a date-dimension relation: one row per day over the year
// range, with derived year/month columns.
func DateDim(name string, loYear, hiYear int) *relation.Relation {
	r := relation.New(name, []string{"d_datekey", "d_year", "d_month", "d_week"})
	week := int64(0)
	for y := loYear; y <= hiYear; y++ {
		for m := 1; m <= 12; m++ {
			for d := 1; d <= 28; d++ {
				r.AppendRow(valenc.EncodeDate(y, m, d), int64(y), int64(m), week%52+1)
				if d%7 == 0 {
					week++
				}
			}
		}
	}
	return r
}

// Table assembles a relation from named columns (all the same length),
// laid out in order. Each column is copied, so the relation never aliases a
// caller's slice: a generator may reuse a column for several tables, or
// keep it, without one table's later appends or edits reaching another.
// Ragged columns panic.
func Table(name string, cols map[string][]int64, order []string) *relation.Relation {
	n := len(cols[order[0]])
	data := make([][]int64, len(order))
	for i, c := range order {
		if len(cols[c]) != n {
			panic("datagen: ragged columns for " + name + "." + c)
		}
		data[i] = slices.Clone(cols[c])
	}
	return relation.FromColumns(name, order, data)
}

// MaxScale is the largest data scale a generator accepts. The largest
// base table (TPC-H lineitem, 120 000 rows at scale 1) has 12 million rows
// at 100, a hundred times the paper and repro profiles' scale 1; far past
// it a database no longer fits in memory, and from about 7.7e13 the row
// count overflows int and ScaleRows would silently clamp every table to
// its floor.
const MaxScale = 100

// CheckScale rejects a scale outside (0, MaxScale]: zero, negative, NaN,
// infinite or too large. Every entry point that takes a scale from a user
// calls it before generating anything.
func CheckScale(scale float64) error {
	if !(scale > 0 && scale <= MaxScale) {
		return fmt.Errorf("scale %g is outside (0, %d]", scale, MaxScale)
	}
	return nil
}

// ScaleRows applies a scale factor to a base count, keeping at least min.
func ScaleRows(base int, scale float64, min int) int {
	n := int(math.Round(float64(base) * scale))
	if n < min {
		return min
	}
	return n
}
