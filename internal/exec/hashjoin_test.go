package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"partadvisor/internal/hardware"
	"partadvisor/internal/relation"
)

// joinSide builds one join operand: a payload column holding the row number
// (so a wrong row is visible, not just a wrong count) after the key columns.
func joinSide(prefix string, keys ...[]int64) *relation.Relation {
	cols := make([]string, 0, len(keys)+1)
	data := make([][]int64, 0, len(keys)+1)
	for i, k := range keys {
		cols = append(cols, fmt.Sprintf("%s.k%d", prefix, i))
		data = append(data, k)
	}
	id := make([]int64, len(keys[0]))
	for i := range id {
		id[i] = int64(i) + 1000
	}
	return relation.FromColumns(prefix, append(cols, prefix+".id"), append(data, id))
}

func joinPreds(nKeys int) []jpred {
	preds := make([]jpred, nKeys)
	for i := range preds {
		preds[i] = jpred{aCol: fmt.Sprintf("a.k%d", i), bCol: fmt.Sprintf("b.k%d", i), outerA: true}
	}
	return preds
}

// relRows copies a relation out as rows (arena-backed columns die with the
// query, so comparisons work on copies).
func relRows(r *relation.Relation) [][]int64 {
	rows := make([][]int64, r.Rows())
	for i := range rows {
		rows[i] = make([]int64, r.NumCols())
		for ci := range rows[i] {
			rows[i][ci] = r.ColAt(ci)[i]
		}
	}
	return rows
}

// nestedLoopJoin is the reference the kernel is checked against: outer rows
// in order, inner rows in order, the kernel's documented mode semantics.
func nestedLoopJoin(a, b *relation.Relation, preds []jpred, mode joinMode) (rows [][]int64, cpuRows int) {
	ar, br := relRows(a), relRows(b)
	for _, arow := range ar {
		matched := false
		for _, brow := range br {
			equal := true
			for _, p := range preds {
				if arow[a.ColIndex(p.aCol)] != brow[b.ColIndex(p.bCol)] {
					equal = false
				}
			}
			if !equal {
				continue
			}
			matched = true
			if mode == modeAnti {
				break
			}
			rows = append(rows, append(slices.Clone(arow), brow...))
			if mode == modeSemi {
				break
			}
		}
		if mode == modeAnti && !matched {
			rows = append(rows, append(slices.Clone(arow), make([]int64, b.NumCols())...))
		}
	}
	return rows, a.Rows() + b.Rows() + len(rows)
}

func requireJoinEqual(t *testing.T, label string, got *relation.Relation, gotCPU int, a, b *relation.Relation, want [][]int64, wantCPU int) {
	t.Helper()
	if wantCols := append(slices.Clone(a.Columns()), b.Columns()...); !slices.Equal(got.Columns(), wantCols) {
		t.Fatalf("%s: columns %v, want %v", label, got.Columns(), wantCols)
	}
	if gotCPU != wantCPU {
		t.Fatalf("%s: cpuRows %d, want %d", label, gotCPU, wantCPU)
	}
	gotRows := relRows(got)
	if len(gotRows) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(gotRows), len(want))
	}
	for i := range want {
		if !slices.Equal(gotRows[i], want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, gotRows[i], want[i])
		}
	}
}

var joinModes = []struct {
	name string
	mode joinMode
}{{"inner", modeInner}, {"semi", modeSemi}, {"anti", modeAnti}}

// TestHashJoinMatchesNestedLoop: exact rows in exact order, column order
// a…, b…, zero-filled inner columns for anti, and cpuRows, over the key
// shapes that break hash tables.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	draw := func(n int, gen func() int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = gen()
		}
		return out
	}
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1}
	cases := []struct {
		name   string
		na, nb int
		gen    func() int64
	}{
		{"duplicate-heavy", 200, 150, func() int64 { return int64(rng.Intn(8)) }},
		{"all-equal", 30, 40, func() int64 { return 42 }},
		{"mostly-distinct", 300, 300, func() int64 { return int64(rng.Intn(400)) }},
		{"empty-inner", 50, 0, func() int64 { return int64(rng.Intn(8)) }},
		{"empty-outer", 0, 50, func() int64 { return int64(rng.Intn(8)) }},
		{"negative", 120, 90, func() int64 { return int64(rng.Intn(41)) - 20 }},
		{"extremes", 60, 60, func() int64 { return extremes[rng.Intn(len(extremes))] }},
		{"multiples-of-2^32", 200, 300, func() int64 { return int64(rng.Intn(256)) << 32 }},
	}
	var s execScratch // one recycled executor for every case
	x := &s.x
	x.ar = &s.ar
	for _, c := range cases {
		for nKeys := 1; nKeys <= 2; nKeys++ {
			aKeys, bKeys := make([][]int64, nKeys), make([][]int64, nKeys)
			for i := range aKeys {
				aKeys[i], bKeys[i] = draw(c.na, c.gen), draw(c.nb, c.gen)
			}
			a, b, preds := joinSide("a", aKeys...), joinSide("b", bKeys...), joinPreds(nKeys)
			for _, m := range joinModes {
				label := fmt.Sprintf("%s/%d-col/%s", c.name, nKeys, m.name)
				want, wantCPU := nestedLoopJoin(a, b, preds, m.mode)
				got, gotCPU := x.hashJoin(a, b, preds, m.mode)
				requireJoinEqual(t, label, got, gotCPU, a, b, want, wantCPU)
				s.release()
			}
		}
	}
}

// TestJoinTableSpreadsStridedKeys: keys that differ only in their high bits
// (multiples of 2^32) or only by a large power-of-two stride must not pile
// into a few chains — the bucket hash is one multiply, so this is the input
// that would show a weak one.
func TestJoinTableSpreadsStridedKeys(t *testing.T) {
	const n = 1 << 12
	for _, shift := range []uint{0, 16, 32, 48} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(i) << shift
		}
		var s execScratch
		x := &s.x
		x.buildTable(joinSide("b", keys), joinPreds(1))
		longest := 0
		for _, head := range x.buckets[:1<<(64-x.shift)] {
			length := 0
			for br := head; br >= 0; br = x.slots[br].next {
				length++
			}
			longest = max(longest, length)
		}
		if longest > 4 {
			t.Fatalf("keys i<<%d: longest chain %d of %d distinct keys", shift, longest, n)
		}
	}
}

// TestProbeRequiresItsOwnTable: a table built for one inner may never be
// probed for another.
func TestProbeRequiresItsOwnTable(t *testing.T) {
	var s execScratch
	x := &s.x
	x.ar = &s.ar
	a := joinSide("a", []int64{1, 2, 3})
	b1, b2 := joinSide("b", []int64{1, 2}), joinSide("b", []int64{3})
	x.buildTable(b1, joinPreds(1))
	defer func() {
		if recover() == nil {
			t.Fatal("probing b2 with the table built on b1 did not panic")
		}
	}()
	x.probeTable(a, b2, joinPreds(1), modeInner)
}

// TestJoinShardsSharedSideMatchesPerShardBuild: four shards joined with one
// relation every node holds in full — as the inner (replicated inner,
// broadcast-b: built once, probed per shard) or as the outer (broadcast-a)
// — equal joining each shard with its own freshly built table, and charge
// the same straggler CPU time.
func TestJoinShardsSharedSideMatchesPerShardBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	hw := hardware.PostgresXLDisk()
	keys := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(rng.Intn(60))
		}
		return out
	}
	for nKeys := 1; nKeys <= 2; nKeys++ {
		side := func(prefix string, n int) *relation.Relation {
			ks := make([][]int64, nKeys)
			for i := range ks {
				ks[i] = keys(n)
			}
			return joinSide(prefix, ks...)
		}
		preds := joinPreds(nKeys)
		for _, m := range joinModes {
			for _, sharedInner := range []bool{true, false} {
				if !sharedInner && m.mode != modeInner {
					continue // the planner never shares the outer of a semi/anti join
				}
				label := fmt.Sprintf("%d-col/%s/sharedInner=%v", nKeys, m.name, sharedInner)
				shardPrefix, allPrefix := "a", "b"
				if !sharedInner {
					shardPrefix, allPrefix = "b", "a"
				}
				shards := []*relation.Relation{side(shardPrefix, 90), side(shardPrefix, 0), side(shardPrefix, 140), side(shardPrefix, 35)}
				all := side(allPrefix, 80)

				var s execScratch
				x := &s.x
				x.ar, x.lay = &s.ar, &layoutSnap{hw: hw}
				out := &dist{}
				x.joinShards(out, shards, all, sharedInner, preds, m.mode)
				maxCPU := 0
				for i, shard := range shards {
					a, b := shard, all
					if !sharedInner {
						a, b = all, shard
					}
					var fresh execScratch
					fresh.x.ar = &fresh.ar
					want, wantCPU := fresh.x.hashJoin(a, b, preds, m.mode)
					maxCPU = max(maxCPU, wantCPU)
					requireJoinEqual(t, fmt.Sprintf("%s shard %d", label, i), out.shards[i], wantCPU, a, b, relRows(want), wantCPU)
				}
				if want := float64(maxCPU) / hw.CPUTuplesPerSec; x.time != want {
					t.Fatalf("%s: charged %v s, want %v", label, x.time, want)
				}
			}
		}
	}
}

// itemRows renders a finished executor's intermediates (names, placement and
// every row) for comparison after the arena is rewound.
func itemRows(x *executor) string {
	var sb strings.Builder
	for _, d := range x.items {
		rels := d.shards
		if d.replicated() {
			rels = []*relation.Relation{d.replica}
		}
		for _, r := range rels {
			fmt.Fprintln(&sb, r.Columns(), relRows(r))
		}
	}
	return sb.String()
}

// TestScratchReuseAcrossDifferentInners: one execScratch runs back-to-back
// queries whose joins build on different inner relations — a replicated
// inner probed by four shards, a broadcast copy, a gathered inner under a
// replicated outer, shuffled shard pairs — with release() rewinding the
// arena in between, and every query equals a fresh executor's run.
func TestScratchReuseAcrossDifferentInners(t *testing.T) {
	sp := engSpace()
	gs := batchGraphs(t)
	for _, tc := range []struct {
		design map[string]string
		traced string // a strategy this layout must exercise
	}{
		{map[string]string{"customer": "R"}, "one side replicated"},
		{map[string]string{"customer": "R"}, "gather inner"},
		{map[string]string{}, "broadcast-b"},
		{map[string]string{"orderline": "ol_o_id"}, "co-located"},
		{map[string]string{"orders": "o_c_id", "customer": "R", "orderline": "ol_o_id"}, "shuffle-b-to-a"},
	} {
		e, _ := newEngine(t)
		e.Deploy(buildState(t, sp, tc.design), nil)
		var plans []string
		for _, g := range gs {
			plan, _ := e.Explain(g)
			plans = append(plans, plan...)
		}
		if !strings.Contains(strings.Join(plans, "\n"), tc.traced) {
			t.Fatalf("design %v never plans %q:\n%s", tc.design, tc.traced, strings.Join(plans, "\n"))
		}
		v := e.loadView()
		var reused execScratch
		for round := 0; round < 2; round++ {
			for i, g := range gs {
				x := reused.prepare(v.layout, g, 0, v.now, nil)
				gotSec, _ := x.run()
				got := itemRows(x)
				reused.release()

				var fresh execScratch
				fx := fresh.prepare(v.layout, g, 0, v.now, nil)
				wantSec, _ := fx.run()
				if want := itemRows(fx); got != want || gotSec != wantSec {
					t.Fatalf("design %v round %d query %d: recycled scratch (%v s) differs from a fresh one (%v s)\n got %s\nwant %s",
						tc.design, round, i, gotSec, wantSec, got, want)
				}
			}
		}
	}
}

// sharedInnerJoin is the kernel's steady-state shape: four shards of
// shardRows rows probing one shared inner of innerRows rows (keys uniform
// over twice the inner's row count, so about two probes in five match).
func sharedInnerJoin(nKeys, shardRows, innerRows int) (s *execScratch, run func(mode joinMode)) {
	rng := rand.New(rand.NewSource(29))
	side := func(prefix string, n int) *relation.Relation {
		ks := make([][]int64, nKeys)
		for i := range ks {
			ks[i] = make([]int64, n)
			for row := range ks[i] {
				ks[i][row] = int64(rng.Intn(2 * innerRows))
			}
		}
		if nKeys == 2 {
			copy(ks[1], ks[0]) // equal columns: the second one decides nothing but is hashed and compared
		}
		return joinSide(prefix, ks...)
	}
	shards := []*relation.Relation{side("a", shardRows), side("a", shardRows), side("a", shardRows), side("a", shardRows)}
	inner, preds := side("b", innerRows), joinPreds(nKeys)
	s = &execScratch{}
	x := &s.x
	x.ar, x.lay = &s.ar, &layoutSnap{hw: hardware.PostgresXLDisk()}
	out := &dist{}
	return s, func(mode joinMode) {
		x.joinShards(out, shards, inner, true, preds, mode)
		s.release()
	}
}

// TestHashJoinAllocatesNothingPerRow: once the recycled buffers are warm,
// a join's allocation count (relation headers, column-name copies) does not
// depend on how many rows it builds on, probes or emits.
func TestHashJoinAllocatesNothingPerRow(t *testing.T) {
	for nKeys := 1; nKeys <= 2; nKeys++ {
		for _, m := range joinModes {
			_, small := sharedInnerJoin(nKeys, 500, 200)
			_, large := sharedInnerJoin(nKeys, 16000, 6400)
			few := testing.AllocsPerRun(5, func() { small(m.mode) })
			many := testing.AllocsPerRun(5, func() { large(m.mode) })
			if many > few {
				t.Fatalf("%d-col %s: %v allocations joining 32x the rows, %v at the small size", nKeys, m.name, many, few)
			}
		}
	}
}

// BenchmarkHashJoin is the join layer's own number: ns per probed row with
// the table built once and probed by four shards.
func BenchmarkHashJoin(b *testing.B) {
	const shardRows, innerRows = 50_000, 20_000
	for nKeys := 1; nKeys <= 2; nKeys++ {
		for _, m := range joinModes {
			b.Run(fmt.Sprintf("%s/%d-col", m.name, nKeys), func(b *testing.B) {
				_, run := sharedInnerJoin(nKeys, shardRows, innerRows)
				run(m.mode) // warm the arena and the recycled buffers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run(m.mode)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4*shardRows), "ns/probed-row")
			})
		}
	}
}
