package benchmarks

import (
	"context"
	"testing"

	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
)

func allBenchmarks() []*Benchmark {
	return []*Benchmark{SSB(), TPCDS(), TPCCH(), TPCH(), Micro()}
}

func TestBenchmarkShapes(t *testing.T) {
	cases := map[string]struct {
		tables, queries int
	}{
		"ssb":   {5, 13},
		"tpcds": {24, 60},
		"tpcch": {12, 22},
		"tpch":  {8, 22},
		"micro": {3, 2},
	}
	for _, b := range allBenchmarks() {
		want := cases[b.Name]
		if got := len(b.Schema.Tables); got != want.tables {
			t.Errorf("%s: %d tables, want %d", b.Name, got, want.tables)
		}
		if got := len(b.Workload.Queries); got != want.queries {
			t.Errorf("%s: %d queries, want %d", b.Name, got, want.queries)
		}
	}
}

func TestAllQueriesParseAndResolve(t *testing.T) {
	// MustParse inside the constructors already panics on failure; this
	// test asserts every query references at least one join or filter so a
	// typo cannot silently produce an empty graph.
	for _, b := range allBenchmarks() {
		for _, q := range b.Workload.Queries {
			if len(q.Graph.Refs) == 0 {
				t.Errorf("%s/%s: no table refs", b.Name, q.Name)
			}
			if len(q.Graph.Refs) > 1 && len(q.Graph.Joins) == 0 {
				t.Errorf("%s/%s: multi-table query without joins", b.Name, q.Name)
			}
		}
	}
}

func TestSpacesBuild(t *testing.T) {
	for _, b := range allBenchmarks() {
		sp := b.Space()
		if sp.NumActions() == 0 || sp.StateLen() == 0 {
			t.Errorf("%s: degenerate space", b.Name)
		}
		if err := sp.InitialState().CheckInvariants(); err != nil {
			t.Errorf("%s: initial state: %v", b.Name, err)
		}
	}
}

func TestTPCCHForbidsWarehouseOnlyKeys(t *testing.T) {
	sp := TPCCH().Space()
	for _, ts := range sp.Tables {
		if ts.Name == "warehouse" {
			continue
		}
		for _, k := range ts.Keys {
			if len(k) == 1 && len(k[0]) > 4 && k[0][len(k[0])-4:] == "w_id" {
				t.Errorf("table %s has forbidden warehouse-only key %v", ts.Name, k)
			}
		}
	}
	// Compound (w, d) keys must survive (the System-X §7.2 result).
	ol := sp.Tables[sp.TableIndex("orderline")]
	if ol.KeyIndex(partition.Key{"ol_w_id", "ol_d_id"}) < 0 {
		t.Errorf("orderline lost its compound key: %v", ol.Keys)
	}
}

func TestGeneratedDataMatchesSchema(t *testing.T) {
	for _, b := range allBenchmarks() {
		data := b.Generate(0.1, 42)
		for _, tbl := range b.Schema.Tables {
			rel := data[tbl.Name]
			if rel == nil {
				t.Errorf("%s: no data for table %s", b.Name, tbl.Name)
				continue
			}
			if rel.Rows() == 0 {
				t.Errorf("%s: empty table %s", b.Name, tbl.Name)
			}
			for _, a := range tbl.Attributes {
				if !rel.HasCol(a.Name) {
					t.Errorf("%s: table %s missing column %s", b.Name, tbl.Name, a.Name)
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	b := SSB()
	d1 := b.Generate(0.05, 7)
	d2 := b.Generate(0.05, 7)
	for name, r1 := range d1 {
		r2 := d2[name]
		if r1.Rows() != r2.Rows() {
			t.Fatalf("%s rows differ: %d vs %d", name, r1.Rows(), r2.Rows())
		}
		for _, c := range r1.Columns() {
			a, b := r1.Col(c), r2.Col(c)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s.%s[%d] differs", name, c, i)
				}
			}
		}
	}
}

func TestSSBRatios(t *testing.T) {
	data := SSB().Generate(1, 1)
	lo, cust, part := data["lineorder"].Rows(), data["customer"].Rows(), data["part"].Rows()
	if cust <= part {
		t.Errorf("customer (%d) must be the largest dimension (part %d)", cust, part)
	}
	if lo < 10*cust {
		t.Errorf("lineorder (%d) must dominate dimensions (customer %d)", lo, cust)
	}
}

func TestTPCCHDistrictSkew(t *testing.T) {
	data := TPCCH().Generate(1, 1)
	dcol := data["customer"].Col("c_d_id")
	distinct := map[int64]bool{}
	for _, v := range dcol {
		distinct[v] = true
	}
	if len(distinct) != 10 {
		t.Errorf("c_d_id distinct = %d, want 10 (the skew driver)", len(distinct))
	}
}

func TestTPCCHUpdatesGrowFactTables(t *testing.T) {
	b := TPCCH()
	data := b.Generate(0.2, 3)
	upd := b.GenerateUpdate(data, 0.5, 9)
	for _, name := range []string{"orders", "orderline", "neworder", "history"} {
		add := upd[name]
		if add == nil || add.Rows() == 0 {
			t.Fatalf("no update rows for %s", name)
		}
		ratio := float64(add.Rows()) / float64(data[name].Rows())
		if ratio < 0.4 || ratio > 0.6 {
			t.Errorf("%s update ratio = %v, want ~0.5", name, ratio)
		}
	}
	// New orders keys continue after existing ones.
	maxOld := int64(0)
	for _, v := range data["orders"].Col("o_id") {
		if v > maxOld {
			maxOld = v
		}
	}
	for _, v := range upd["orders"].Col("o_id") {
		if v <= maxOld {
			t.Fatalf("update reused existing order id %d", v)
		}
	}
}

func TestAllWorkloadsExecute(t *testing.T) {
	// Every query of every benchmark must execute on the engine without
	// panicking and return a positive simulated runtime.
	for _, b := range allBenchmarks() {
		data := b.Generate(0.05, 11)
		e := exec.New(b.Schema, data, hardware.PostgresXLDisk(), exec.Disk)
		sp := b.Space()
		e.Deploy(sp.InitialState(), nil)
		rep := e.Exec(context.Background(), exec.Request{Queries: exec.Queries(b.Workload.Graphs(), 0)})
		for i, q := range b.Workload.Queries {
			if sec := rep.Reports[i].Seconds; sec <= 0 || rep.Errs[i] != nil {
				t.Errorf("%s/%s: runtime %v, err %v", b.Name, q.Name, sec, rep.Errs[i])
			}
		}
	}
}

func TestMicroSizes(t *testing.T) {
	data := Micro().Generate(1, 1)
	if data["c"].Rows() <= data["b"].Rows() {
		t.Errorf("c (%d) must be larger than b (%d) per §7.6", data["c"].Rows(), data["b"].Rows())
	}
	if data["a"].Rows() <= data["c"].Rows() {
		t.Errorf("a (%d) must be the fact table (c %d)", data["a"].Rows(), data["c"].Rows())
	}
	// b is wide: row width 64 bytes.
	if w := Micro().Schema.MustTable("b").RowWidth(); w != 64 {
		t.Errorf("b row width = %d, want 64", w)
	}
}

func TestAllQueriesConnected(t *testing.T) {
	// Every multi-table query's alias join graph must be connected — a
	// disconnected graph means a typo'd predicate silently turned a join
	// into a cartesian product.
	for _, b := range allBenchmarks() {
		for _, q := range b.Workload.Queries {
			g := q.Graph
			n := len(g.Refs)
			if n <= 1 {
				continue
			}
			idx := map[string]int{}
			for i, r := range g.Refs {
				idx[r.Alias] = i
			}
			adj := make([][]int, n)
			for _, j := range g.Joins {
				a, b := idx[j.LeftAlias], idx[j.RightAlias]
				adj[a] = append(adj[a], b)
				adj[b] = append(adj[b], a)
			}
			seen := make([]bool, n)
			stack := []int{0}
			seen[0] = true
			count := 1
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, u := range adj[v] {
					if !seen[u] {
						seen[u] = true
						count++
						stack = append(stack, u)
					}
				}
			}
			if count != n {
				t.Errorf("%s/%s: join graph disconnected (%d of %d aliases reachable)", b.Name, q.Name, count, n)
			}
		}
	}
}

func TestTPCHSpaceAndEconomics(t *testing.T) {
	b := TPCH()
	sp := b.Space()
	// The classic TPC-H co-partitioning keys must be in the space.
	li := sp.Tables[sp.TableIndex("lineitem")]
	if li.KeyIndex(partition.Key{"l_orderkey"}) < 0 {
		t.Fatalf("lineitem lost l_orderkey: %v", li.Keys)
	}
	ps := sp.Tables[sp.TableIndex("partsupp")]
	if ps.KeyIndex(partition.Key{"ps_partkey", "ps_suppkey"}) < 0 {
		t.Fatalf("partsupp lost its compound key: %v", ps.Keys)
	}
	// Economics: s0 already co-partitions lineitem with orders (l_orderkey
	// is the primary-key head); breaking that co-location by partitioning
	// lineitem on l_partkey must cost measurably more on the engine
	// (Q3/Q5/Q10/Q18 all join lineitem with orders).
	data := b.Generate(0.2, 13)
	e := exec.New(b.Schema, data, hardware.PostgresXLDisk(), exec.Disk)
	s0 := sp.InitialState()
	liIdx := sp.TableIndex("lineitem")
	ki := sp.Tables[liIdx].KeyIndex(partition.Key{"l_partkey"})
	if ki < 0 {
		t.Fatalf("lineitem lost l_partkey: %v", sp.Tables[liIdx].Keys)
	}
	broken := sp.Apply(s0, partition.Action{Kind: partition.ActPartition, Table: liIdx, Key: ki})
	run := func(st *partition.State) float64 {
		e.Deploy(st, nil)
		return e.Exec(context.Background(), exec.Request{Queries: exec.Queries(b.Workload.Graphs(), 0)}).Seconds
	}
	base, worse := run(s0), run(broken)
	if worse <= base {
		t.Fatalf("breaking lineitem/orders co-location should cost more: %v <= %v", worse, base)
	}
}
