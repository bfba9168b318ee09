package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"partadvisor/internal/relation"
	"partadvisor/internal/sqlparse"
	"partadvisor/internal/stats"
)

// scalarMatches is the row-at-a-time predicate the scan kernel replaced,
// kept here as the oracle the kernel is checked against.
func scalarMatches(v int64, op stats.CompareOp, args []int64) bool {
	switch op {
	case stats.OpEq:
		return len(args) == 1 && v == args[0]
	case stats.OpNe:
		return len(args) == 1 && v != args[0]
	case stats.OpLt:
		return len(args) == 1 && v < args[0]
	case stats.OpLe:
		return len(args) == 1 && v <= args[0]
	case stats.OpGt:
		return len(args) == 1 && v > args[0]
	case stats.OpGe:
		return len(args) == 1 && v >= args[0]
	case stats.OpBetween:
		return len(args) == 2 && v >= args[0] && v <= args[1]
	case stats.OpIn:
		for _, a := range args {
			if v == a {
				return true
			}
		}
		return false
	}
	return false
}

// allOps is every comparison operator plus one the analyzer never emits.
var allOps = []stats.CompareOp{stats.OpEq, stats.OpNe, stats.OpLt, stats.OpLe, stats.OpGt,
	stats.OpGe, stats.OpBetween, stats.OpIn, stats.CompareOp(99)}

// edgeValues is 0, the int64 edges and every argument ±1 (wrapping at the
// edges, so the edges and their neighbours appear too).
func edgeValues(args []int64) []int64 {
	seen := map[int64]bool{}
	var out []int64
	add := func(v int64) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, v := range []int64{0, math.MinInt64, math.MaxInt64} {
		add(v)
	}
	for _, a := range args {
		add(a - 1)
		add(a)
		add(a + 1)
	}
	return out
}

// filterCases lists one filter of every op, both values of Neg and 0-3
// arguments drawn from the int64 edges and a few small values.
func filterCases() []sqlparse.Filter {
	pool := []int64{math.MinInt64, -7, 0, 3, math.MaxInt64}
	var out []sqlparse.Filter
	var rec func(args []int64)
	rec = func(args []int64) {
		for _, op := range allOps {
			for _, neg := range []bool{false, true} {
				out = append(out, sqlparse.Filter{Column: "c0", Op: op, Args: append([]int64(nil), args...), Neg: neg})
			}
		}
		if len(args) == 3 {
			return
		}
		for _, a := range pool {
			rec(append(args, a))
		}
	}
	rec(nil)
	return out
}

// oracleSelect is what the scan keeps: every row where every filter
// matches, ascending.
func oracleSelect(shard *relation.Relation, fs []sqlparse.Filter) []int32 {
	var out []int32
	for row := 0; row < shard.Rows(); row++ {
		ok := true
		for _, f := range fs {
			if scalarMatches(shard.Col(f.Column)[row], f.Op, f.Args) == f.Neg {
				ok = false
			}
		}
		if ok {
			out = append(out, int32(row))
		}
	}
	return out
}

// kernelSelect runs fs through the scan's compiled path.
func kernelSelect(x *executor, shard *relation.Relation, fs []sqlparse.Filter) []int32 {
	compiled := make([]scanFilter, len(fs))
	for i := range fs {
		compiled[i] = compileFilter(&fs[i])
	}
	return x.selectRows(shard, compiled)
}

func checkSelect(t *testing.T, x *executor, shard *relation.Relation, fs []sqlparse.Filter) {
	t.Helper()
	got, want := kernelSelect(x, shard, fs), oracleSelect(shard, fs)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("filters %+v over %v:\n kernel %v\n oracle %v", fs, shard.Col("c0"), got, want)
	}
}

// TestScanFilterMatchesScalar: for every op, both values of Neg and 0-3
// arguments, on columns holding the int64 edges, 0 and each argument ±1,
// the kernel keeps exactly the rows the scalar predicate matches — alone
// (the whole-column first pass) and behind a filter that keeps every row
// or every other row (the in-place refine pass).
func TestScanFilterMatchesScalar(t *testing.T) {
	var x executor
	all := sqlparse.Filter{Column: "c1", Op: stats.OpGe, Args: []int64{math.MinInt64}}
	odd := sqlparse.Filter{Column: "c1", Op: stats.OpIn, Args: []int64{1, 3, 5, 7, 9, 11, 13, 15}}
	for _, f := range filterCases() {
		vals := edgeValues(f.Args)
		ids := make([]int64, len(vals))
		for i := range ids {
			ids[i] = int64(i)
		}
		shard := relation.FromColumns("t", []string{"c0", "c1"}, [][]int64{vals, ids})
		checkSelect(t, &x, shard, []sqlparse.Filter{f})
		checkSelect(t, &x, shard, []sqlparse.Filter{all, f})
		checkSelect(t, &x, shard, []sqlparse.Filter{odd, f})
	}
}

// TestScanFilterStackedMatchesScalar: 1-4 stacked filters over two
// columns of edge values, in every order the draw produces.
func TestScanFilterStackedMatchesScalar(t *testing.T) {
	cases := filterCases()
	rng := rand.New(rand.NewSource(1))
	var x executor
	for trial := 0; trial < 3000; trial++ {
		fs := make([]sqlparse.Filter, 1+rng.Intn(4))
		var args []int64
		for i := range fs {
			fs[i] = cases[rng.Intn(len(cases))]
			fs[i].Column = fmt.Sprintf("c%d", rng.Intn(2))
			args = append(args, fs[i].Args...)
		}
		vals := edgeValues(args)
		rows := 1 + rng.Intn(64)
		c0, c1 := make([]int64, rows), make([]int64, rows)
		for i := range c0 {
			c0[i], c1[i] = vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
		}
		checkSelect(t, &x, relation.FromColumns("t", []string{"c0", "c1"}, [][]int64{c0, c1}), fs)
	}
}

// TestScanFilterFromSQL: what the analyzer emits for NOT BETWEEN and the
// IS NOT NULL no-op, through the kernel.
func TestScanFilterFromSQL(t *testing.T) {
	g := engGraph(t, "SELECT * FROM orders WHERE NOT o_amount BETWEEN 1 AND 3 AND o_id IS NOT NULL")
	if len(g.Filters) != 2 {
		t.Fatalf("Filters = %v", g.Filters)
	}
	shard := relation.FromColumns("orders", []string{"o_amount", "o_id"},
		[][]int64{{2, 10, 0, 1, 3, 4}, {0, 12345, 7, -1, 0, 0}})
	var x executor
	notBetween := compileFilter(&g.Filters[0])
	if got := fmt.Sprint(x.selectRows(shard, []scanFilter{notBetween})); got != "[1 2 5]" {
		t.Fatalf("NOT BETWEEN 1 AND 3 kept rows %s, want [1 2 5]", got)
	}
	isNotNull := compileFilter(&g.Filters[1])
	if got := fmt.Sprint(x.selectRows(shard, []scanFilter{isNotNull})); got != "[0 1 2 3 4 5]" {
		t.Fatalf("IS NOT NULL kept rows %s, want every row", got)
	}
}

// FuzzScanFilter: up to four stacked filters, each two bytes of spec (op,
// argument count, Neg, column, which of a/b/c start its arguments), over
// two columns whose values each row's byte picks from a, b, c ±1, the
// int64 edges and small values.
func FuzzScanFilter(f *testing.F) {
	f.Add([]byte{0, 1}, int64(5), int64(-3), int64(9), []byte{0, 1, 2, 0x31, 0xff})
	f.Add([]byte{6, 2, 2, 0x0d, 7, 0x13}, int64(math.MinInt64), int64(math.MaxInt64), int64(0), []byte{9, 10, 11, 12, 0x9c})
	f.Fuzz(func(t *testing.T, spec []byte, a, b, c int64, colBytes []byte) {
		if len(spec) < 2 || len(spec) > 8 || len(colBytes) > 256 {
			return
		}
		abc := []int64{a, b, c}
		var fs []sqlparse.Filter
		for i := 0; i+1 < len(spec); i += 2 {
			s := spec[i+1]
			var args []int64
			for k := 0; k < int(s&3); k++ {
				args = append(args, abc[(int(s>>4)+k)%3])
			}
			fs = append(fs, sqlparse.Filter{
				Column: fmt.Sprintf("c%d", (s>>3)&1),
				Op:     allOps[int(spec[i])%len(allOps)],
				Args:   args,
				Neg:    s&4 != 0,
			})
		}
		pool := []int64{a - 1, a, a + 1, b - 1, b, b + 1, c - 1, c, c + 1,
			math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64, 0, -1, 1}
		c0, c1 := make([]int64, len(colBytes)), make([]int64, len(colBytes))
		for i, by := range colBytes {
			c0[i], c1[i] = pool[by%16], pool[by/16]
		}
		var x executor
		checkSelect(t, &x, relation.FromColumns("t", []string{"c0", "c1"}, [][]int64{c0, c1}), fs)
	})
}

// selSink keeps the benchmarked call live.
var selSink []int32

// BenchmarkScanFilter: the scan's filter kernel over one 200k-row shard,
// in ns per scanned row, warm (the selection vector already sized).
func BenchmarkScanFilter(b *testing.B) {
	const rows = 200_000
	rng := rand.New(rand.NewSource(1))
	cols := make([][]int64, 4)
	for i := range cols {
		cols[i] = make([]int64, rows)
		for r := range cols[i] {
			cols[i][r] = int64(rng.Intn(1000))
		}
	}
	for r := range cols[3] {
		cols[3][r] %= 10
	}
	shard := relation.FromColumns("t", []string{"c0", "c1", "c2", "c3"}, cols)
	lt := func(col string, v int64) sqlparse.Filter {
		return sqlparse.Filter{Column: col, Op: stats.OpLt, Args: []int64{v}}
	}
	cases := []struct {
		name string
		fs   []sqlparse.Filter
	}{
		{"range5pct", []sqlparse.Filter{lt("c0", 50)}},
		{"range40pct", []sqlparse.Filter{lt("c0", 400)}},
		{"range95pct", []sqlparse.Filter{lt("c0", 950)}},
		{"stacked3", []sqlparse.Filter{lt("c0", 800),
			{Column: "c1", Op: stats.OpGe, Args: []int64{200}},
			{Column: "c2", Op: stats.OpBetween, Args: []int64{100, 899}}}},
		{"in3", []sqlparse.Filter{{Column: "c3", Op: stats.OpIn, Args: []int64{1, 4, 7}}}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var x executor
			compiled := make([]scanFilter, len(tc.fs))
			for i := range tc.fs {
				compiled[i] = compileFilter(&tc.fs[i])
			}
			kept := len(x.selectRows(shard, compiled))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				selSink = x.selectRows(shard, compiled)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			b.ReportMetric(float64(kept)/rows, "selectivity")
		})
	}
}
