package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func testCatalog() *Catalog {
	c := NewCatalog()
	c.SetTable("orders", &TableStats{
		Rows:     1000,
		RowWidth: 40,
		Columns: map[string]*ColumnStats{
			"o_id":     {Distinct: 1000, Min: 0, Max: 999},
			"o_status": {Distinct: 4, Min: 0, Max: 3},
			"o_amount": {Distinct: 100, Min: 0, Max: 99, Histogram: []int64{700, 100, 100, 100}},
		},
	})
	return c
}

func TestCatalogBasics(t *testing.T) {
	c := testCatalog()
	if got := c.Rows("orders"); got != 1000 {
		t.Fatalf("Rows = %d", got)
	}
	if got := c.Rows("missing"); got != 0 {
		t.Fatalf("Rows(missing) = %d", got)
	}
	if got := c.Bytes("orders"); got != 40000 {
		t.Fatalf("Bytes = %d", got)
	}
	if got := c.Bytes("missing"); got != 0 {
		t.Fatalf("Bytes(missing) = %d", got)
	}
	if c.Table("orders") == nil || c.Table("missing") != nil {
		t.Fatalf("Table lookup broken")
	}
}

func TestMustTablePanics(t *testing.T) {
	c := testCatalog()
	defer func() {
		if recover() == nil {
			t.Fatalf("MustTable did not panic")
		}
	}()
	c.MustTable("missing")
}

func TestColumnFallbacks(t *testing.T) {
	c := testCatalog()
	// Unknown column on known table: key-like.
	cs := c.Column("orders", "o_unknown")
	if cs.Distinct != 1000 {
		t.Fatalf("fallback distinct = %d, want rows", cs.Distinct)
	}
	// Unknown table.
	cs = c.Column("missing", "x")
	if cs.Distinct != 1 {
		t.Fatalf("missing-table distinct = %d, want 1", cs.Distinct)
	}
	if d := c.Distinct("orders", "o_status"); d != 4 {
		t.Fatalf("Distinct = %d", d)
	}
}

func TestClone(t *testing.T) {
	c := testCatalog()
	cp := c.Clone()
	cp.Tables["orders"].Rows = 5
	cp.Tables["orders"].Columns["o_amount"].Histogram[0] = 1
	if c.Rows("orders") != 1000 {
		t.Fatalf("Clone shares Rows")
	}
	if c.Tables["orders"].Columns["o_amount"].Histogram[0] != 700 {
		t.Fatalf("Clone shares histogram")
	}
	if cp.Tables["orders"].Columns["o_status"].Histogram != nil {
		t.Fatalf("Clone invented a histogram")
	}
}

// TestRangeOf: every range comparison maps to the interval it accepts,
// the int64 edges included, and malformed arities and IN report !ok.
func TestRangeOf(t *testing.T) {
	const minI, maxI = math.MinInt64, math.MaxInt64
	cases := []struct {
		op      CompareOp
		args    []int64
		lo, hi  int64
		neg, ok bool
	}{
		{OpEq, []int64{5}, 5, 5, false, true},
		{OpNe, []int64{5}, 5, 5, true, true},
		{OpLt, []int64{5}, minI, 4, false, true},
		{OpLe, []int64{5}, minI, 5, false, true},
		{OpGt, []int64{5}, 6, maxI, false, true},
		{OpGe, []int64{5}, 5, maxI, false, true},
		{OpBetween, []int64{1, 5}, 1, 5, false, true},
		{OpBetween, []int64{6, 2}, 6, 2, false, true}, // empty: lo > hi
		{OpLt, []int64{minI}, 1, 0, false, true},      // empty, no wrap
		{OpGt, []int64{maxI}, 1, 0, false, true},      // empty, no wrap
		{OpLe, []int64{maxI}, minI, maxI, false, true},
		{OpGe, []int64{minI}, minI, maxI, false, true},
		{OpEq, nil, 0, 0, false, false},
		{OpLt, []int64{1, 2}, 0, 0, false, false},
		{OpBetween, []int64{1}, 0, 0, false, false},
		{OpIn, []int64{1, 5, 7}, 0, 0, false, false},
	}
	for _, tc := range cases {
		lo, hi, neg, ok := RangeOf(tc.op, tc.args)
		if ok != tc.ok || (ok && (lo != tc.lo || hi != tc.hi || neg != tc.neg)) {
			t.Errorf("RangeOf(%v, %v) = [%d, %d] neg=%v ok=%v, want [%d, %d] neg=%v ok=%v",
				tc.op, tc.args, lo, hi, neg, ok, tc.lo, tc.hi, tc.neg, tc.ok)
		}
	}
}

func TestCompareOpString(t *testing.T) {
	ops := map[CompareOp]string{OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=", OpBetween: "BETWEEN", OpIn: "IN"}
	for op, want := range ops {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(op), got, want)
		}
	}
	if got := CompareOp(99).String(); got != "CompareOp(99)" {
		t.Errorf("unknown op String = %q", got)
	}
}

func TestSelectivityEquality(t *testing.T) {
	c := testCatalog()
	if got := c.Selectivity("orders", "o_status", OpEq, []int64{1}); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("eq selectivity = %v, want 0.25", got)
	}
	if got := c.Selectivity("orders", "o_status", OpNe, []int64{1}); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("ne selectivity = %v, want 0.75", got)
	}
	if got := c.Selectivity("orders", "o_status", OpIn, []int64{1, 2}); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("in selectivity = %v, want 0.5", got)
	}
}

func TestSelectivityRangeUniform(t *testing.T) {
	c := testCatalog()
	// o_id uniform in [0, 999].
	if got := c.Selectivity("orders", "o_id", OpLt, []int64{100}); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("lt selectivity = %v, want 0.1", got)
	}
	if got := c.Selectivity("orders", "o_id", OpGe, []int64{900}); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("ge selectivity = %v, want 0.1", got)
	}
	if got := c.Selectivity("orders", "o_id", OpBetween, []int64{0, 999}); got != 1 {
		t.Fatalf("full-range selectivity = %v, want 1", got)
	}
	if got := c.Selectivity("orders", "o_id", OpBetween, []int64{2000, 3000}); got != 0 {
		t.Fatalf("out-of-range selectivity = %v, want 0", got)
	}
}

func TestSelectivityHistogram(t *testing.T) {
	c := testCatalog()
	// o_amount histogram [700,100,100,100] over [0,99]; bucket width 25.
	// [0,24] is exactly the first bucket: 700/1000.
	if got := c.Selectivity("orders", "o_amount", OpBetween, []int64{0, 24}); math.Abs(got-0.7) > 1e-9 {
		t.Fatalf("hist selectivity = %v, want 0.7", got)
	}
	// Upper half [50,99]: buckets 3+4 = 200/1000.
	if got := c.Selectivity("orders", "o_amount", OpGe, []int64{50}); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("hist upper selectivity = %v, want 0.2", got)
	}
}

func TestSelectivityMalformedArgs(t *testing.T) {
	c := testCatalog()
	if got := c.Selectivity("orders", "o_id", OpLt, nil); got != 1 {
		t.Fatalf("malformed-args selectivity = %v, want 1 (no filtering)", got)
	}
	if got := c.Selectivity("orders", "o_id", OpBetween, []int64{1}); got != 1 {
		t.Fatalf("malformed BETWEEN selectivity = %v, want 1", got)
	}
}

// TestSelectivityInt64Edges: x > MaxInt64 and x < MinInt64 select
// nothing. Computing their bounds as args[0]+1 and args[0]-1 wrapped round
// and estimated both as the whole column.
func TestSelectivityInt64Edges(t *testing.T) {
	c := testCatalog()
	for _, col := range []string{"o_id", "o_amount"} {
		if got := c.Selectivity("orders", col, OpGt, []int64{math.MaxInt64}); got != 0 {
			t.Errorf("%s > MaxInt64 selectivity = %v, want 0", col, got)
		}
		if got := c.Selectivity("orders", col, OpLt, []int64{math.MinInt64}); got != 0 {
			t.Errorf("%s < MinInt64 selectivity = %v, want 0", col, got)
		}
		if got := c.Selectivity("orders", col, OpGe, []int64{math.MinInt64}); got != 1 {
			t.Errorf("%s >= MinInt64 selectivity = %v, want 1", col, got)
		}
		if got := c.Selectivity("orders", col, OpLe, []int64{math.MaxInt64}); got != 1 {
			t.Errorf("%s <= MaxInt64 selectivity = %v, want 1", col, got)
		}
	}
}

func TestSelectivityBoundsProperty(t *testing.T) {
	c := testCatalog()
	// Property: selectivity is always within [0, 1] for arbitrary range args.
	f := func(lo, hi int64) bool {
		for _, op := range []CompareOp{OpLt, OpLe, OpGt, OpGe} {
			s := c.Selectivity("orders", "o_amount", op, []int64{lo})
			if s < 0 || s > 1 {
				return false
			}
		}
		s := c.Selectivity("orders", "o_amount", OpBetween, []int64{lo, hi})
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelectivityMonotoneProperty(t *testing.T) {
	c := testCatalog()
	// Property: widening a BETWEEN range never decreases selectivity.
	f := func(lo, width, extra uint16) bool {
		l := int64(lo) % 100
		h := l + int64(width)%100
		s1 := c.Selectivity("orders", "o_amount", OpBetween, []int64{l, h})
		s2 := c.Selectivity("orders", "o_amount", OpBetween, []int64{l, h + int64(extra)%100})
		return s2 >= s1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangeFractionDegenerate(t *testing.T) {
	cs := ColumnStats{Distinct: 1, Min: 5, Max: 5}
	if got := cs.rangeFraction(5, 5); got != 1 {
		t.Fatalf("degenerate in-range = %v, want 1", got)
	}
	if got := cs.rangeFraction(6, 7); got != 0 {
		t.Fatalf("degenerate out-of-range = %v, want 0", got)
	}
}
