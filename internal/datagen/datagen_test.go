package datagen

import (
	"math"
	"testing"
)

func TestSeqAndSeqFrom(t *testing.T) {
	g := New(1)
	s := g.Seq(5)
	if len(s) != 5 || s[0] != 0 || s[4] != 4 {
		t.Fatalf("Seq = %v", s)
	}
}

func TestUniformBounds(t *testing.T) {
	g := New(2)
	for _, v := range g.Uniform(1000, 7) {
		if v < 0 || v >= 7 {
			t.Fatalf("Uniform out of range: %d", v)
		}
	}
	for _, v := range g.UniformRange(1000, -5, 5) {
		if v < -5 || v > 5 {
			t.Fatalf("UniformRange out of range: %d", v)
		}
	}
}

func TestFKDrawsFromRefs(t *testing.T) {
	g := New(3)
	refs := []int64{10, 20, 30}
	seen := map[int64]bool{}
	for _, v := range g.FK(300, refs) {
		seen[v] = true
		if v != 10 && v != 20 && v != 30 {
			t.Fatalf("FK drew %d", v)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("FK never drew all refs: %v", seen)
	}
}

func TestModAndStrings(t *testing.T) {
	g := New(5)
	m := g.Mod(10, 3)
	if m[0] != 0 || m[1] != 1 || m[3] != 0 {
		t.Fatalf("Mod = %v", m)
	}
}

func TestDatesValid(t *testing.T) {
	g := New(6)
	for _, v := range g.Dates(500, 2000, 2002) {
		y := v / 10000
		m := (v / 100) % 100
		d := v % 100
		if y < 2000 || y > 2002 || m < 1 || m > 12 || d < 1 || d > 28 {
			t.Fatalf("bad date %d", v)
		}
	}
}

func TestDateDim(t *testing.T) {
	r := DateDim("d", 2000, 2001)
	if r.Rows() != 2*12*28 {
		t.Fatalf("DateDim rows = %d", r.Rows())
	}
	if r.Col("d_year")[0] != 2000 {
		t.Fatalf("first year = %d", r.Col("d_year")[0])
	}
}

func TestTableAssembly(t *testing.T) {
	g := New(7)
	r := Table("t", map[string][]int64{"a": g.Seq(3), "b": {9, 9, 9}}, []string{"a", "b"})
	if r.Rows() != 3 || r.Col("b")[2] != 9 {
		t.Fatalf("Table = %v", r)
	}
	defer func() {
		if got := recover(); got != "datagen: ragged columns for t.b" {
			t.Fatalf("ragged Table: panic %v", got)
		}
	}()
	Table("t", map[string][]int64{"a": {1}, "b": {1, 2}}, []string{"a", "b"})
}

// TestTableOwnsColumns: the relation copies its columns, so a generator
// that edits a slice after Table returns leaves the table unchanged, and
// the other way round.
func TestTableOwnsColumns(t *testing.T) {
	a := []int64{1, 2, 3}
	r := Table("t", map[string][]int64{"a": a}, []string{"a"})
	a[0] = 99
	if got := r.Col("a"); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("table column followed its input slice: %v", got)
	}
	r.Col("a")[1] = -1
	if a[1] != 2 {
		t.Fatalf("input slice followed the table column: %v", a)
	}
}

// TestTableColumnOrder: columns are laid out as order lists them, never in
// map iteration order.
func TestTableColumnOrder(t *testing.T) {
	order := []string{"z", "a", "m", "b", "y", "c"}
	cols := make(map[string][]int64, len(order))
	for i, c := range order {
		cols[c] = []int64{int64(i), int64(10 * i)}
	}
	for run := 0; run < 20; run++ {
		r := Table("t", cols, order)
		for i, c := range order {
			if r.Columns()[i] != c || r.ColAt(i)[1] != int64(10*i) {
				t.Fatalf("column %d = %s %v, want %s", i, r.Columns()[i], r.ColAt(i), c)
			}
		}
	}
}

func TestScaleRows(t *testing.T) {
	if got := ScaleRows(1000, 0.5, 10); got != 500 {
		t.Fatalf("ScaleRows = %d", got)
	}
	if got := ScaleRows(1000, 0.001, 10); got != 10 {
		t.Fatalf("ScaleRows min = %d", got)
	}
}

// TestCheckScale: the scales CheckScale accepts are exactly those ScaleRows
// turns into an honest row count; 1e19 used to overflow to MinInt64 and
// clamp every table to its floor.
func TestCheckScale(t *testing.T) {
	for _, scale := range []float64{1e-9, 0.05, 1, MaxScale} {
		if err := CheckScale(scale); err != nil {
			t.Errorf("CheckScale(%g) = %v, want ok", scale, err)
		}
	}
	for _, scale := range []float64{0, -1, MaxScale * 1.0001, 1e19, 1e300, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckScale(scale); err == nil {
			t.Errorf("CheckScale(%g) accepted", scale)
		}
	}
	if got := ScaleRows(120_000, MaxScale, 4000); got != 120_000*MaxScale {
		t.Fatalf("ScaleRows at MaxScale = %d, want %d", got, 120_000*MaxScale)
	}
}

func TestDeterminism(t *testing.T) {
	a := New(9).Uniform(100, 1000)
	b := New(9).Uniform(100, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed generators differ")
		}
	}
}
