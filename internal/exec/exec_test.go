package exec

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/relation"
	"partadvisor/internal/schema"
	"partadvisor/internal/sqlparse"
)

// engSchema: orders(1..N) -> customer(1..C), orderline -> orders.
func engSchema() *schema.Schema {
	attr := func(names ...string) []schema.Attribute {
		out := make([]schema.Attribute, len(names))
		for i, n := range names {
			out[i] = schema.Attribute{Name: n, Width: 8}
		}
		return out
	}
	return schema.New("eng",
		[]*schema.Table{
			{Name: "customer", Attributes: attr("c_id", "c_region"), PrimaryKey: []string{"c_id"}},
			{Name: "orders", Attributes: attr("o_id", "o_c_id", "o_amount"), PrimaryKey: []string{"o_id"}},
			{Name: "orderline", Attributes: attr("ol_id", "ol_o_id", "ol_qty"), PrimaryKey: []string{"ol_id"}},
		},
		[]schema.ForeignKey{
			{FromTable: "orders", FromAttr: "o_c_id", ToTable: "customer", ToAttr: "c_id"},
			{FromTable: "orderline", FromAttr: "ol_o_id", ToTable: "orders", ToAttr: "o_id"},
		},
	)
}

func engData(nCust, nOrders, nLines int, seed int64) map[string]*relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	cust := relation.New("customer", []string{"c_id", "c_region"})
	for i := 0; i < nCust; i++ {
		cust.AppendRow(int64(i), int64(rng.Intn(5)))
	}
	orders := relation.New("orders", []string{"o_id", "o_c_id", "o_amount"})
	for i := 0; i < nOrders; i++ {
		orders.AppendRow(int64(i), int64(rng.Intn(nCust)), int64(rng.Intn(1000)))
	}
	lines := relation.New("orderline", []string{"ol_id", "ol_o_id", "ol_qty"})
	for i := 0; i < nLines; i++ {
		lines.AppendRow(int64(i), int64(rng.Intn(nOrders)), int64(rng.Intn(10)))
	}
	return map[string]*relation.Relation{"customer": cust, "orders": orders, "orderline": lines}
}

func newEngine(t *testing.T) (*Engine, map[string]*relation.Relation) {
	t.Helper()
	data := engData(50, 400, 1200, 1)
	return New(engSchema(), data, hardware.PostgresXLDisk(), Disk), data
}

// run1 executes one query as a batch of one on the deployed layout.
func run1(e *Engine, g *sqlparse.Graph, limit float64) (RunReport, error) {
	rep := e.Exec(context.Background(), Request{Queries: []BatchQuery{{Graph: g, Limit: limit}}})
	return rep.Reports[0], rep.Errs[0]
}

// runSec is run1 without a limit, reduced to the consumed simulated seconds
// (partial when an injected fault failed the query).
func runSec(e *Engine, g *sqlparse.Graph) float64 {
	rep, _ := run1(e, g, 0)
	return rep.Seconds
}

func engGraph(t *testing.T, sql string) *sqlparse.Graph {
	t.Helper()
	g, err := sqlparse.ParseAndAnalyze(sql, engSchema())
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return g
}

func engSpace() *partition.Space {
	return partition.NewSpace(engSchema(), nil, partition.Options{})
}

// bruteJoinCount computes the expected join cardinality for the two-way
// orders ⋈ customer query with an optional region filter.
func bruteOrdersCustomer(data map[string]*relation.Relation, region int64, filter bool) int {
	cust := data["customer"]
	orders := data["orders"]
	regionOf := map[int64]int64{}
	for i := 0; i < cust.Rows(); i++ {
		regionOf[cust.Col("c_id")[i]] = cust.Col("c_region")[i]
	}
	count := 0
	for i := 0; i < orders.Rows(); i++ {
		r, ok := regionOf[orders.Col("o_c_id")[i]]
		if !ok {
			continue
		}
		if filter && r != region {
			continue
		}
		count++
	}
	return count
}

// resultRows counts total rows of the final intermediate by re-running the
// executor directly.
func resultRows(e *Engine, g *sqlparse.Graph) int {
	v := e.loadView()
	var s execScratch
	x := s.prepare(v.layout, g, 0, v.now, newFaultCtx(v.faults, e.HW.Nodes, v.now))
	x.run()
	total := 0
	for _, d := range x.items {
		total += d.realRows()
	}
	return total
}

func TestJoinCorrectnessAcrossDesigns(t *testing.T) {
	e, data := newEngine(t)
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id AND c.c_region = 2")
	want := bruteOrdersCustomer(data, 2, true)
	sp := engSpace()

	designs := []map[string]string{
		{},                               // all pk (co-located on nothing useful)
		{"customer": "R"},                // replicated dim
		{"orders": "o_c_id"},             // co-partitioned with customer pk
		{"orders": "R", "customer": "R"}, // everything replicated
	}
	for i, mods := range designs {
		st := buildState(t, sp, mods)
		e.Deploy(st, nil)
		if got := resultRows(e, g); got != want {
			t.Fatalf("design %d (%v): join rows = %d, want %d", i, mods, got, want)
		}
	}
}

func buildState(t *testing.T, sp *partition.Space, mods map[string]string) *partition.State {
	t.Helper()
	s := sp.InitialState()
	for table, spec := range mods {
		ti := sp.TableIndex(table)
		if spec == "R" {
			s = sp.Apply(s, partition.Action{Kind: partition.ActReplicate, Table: ti})
			continue
		}
		ki := sp.Tables[ti].KeyIndex(partition.Key{spec})
		if ki < 0 {
			t.Fatalf("table %s missing key %s", table, spec)
		}
		if sp.Valid(s, partition.Action{Kind: partition.ActPartition, Table: ti, Key: ki}) {
			s = sp.Apply(s, partition.Action{Kind: partition.ActPartition, Table: ti, Key: ki})
		}
	}
	return s
}

func TestThreeWayJoinCorrectness(t *testing.T) {
	e, data := newEngine(t)
	g := engGraph(t, `SELECT * FROM orderline ol, orders o, customer c
		WHERE ol.ol_o_id = o.o_id AND o.o_c_id = c.c_id`)
	// Brute force: every orderline row matches exactly one order, which
	// matches exactly one customer.
	want := data["orderline"].Rows()
	sp := engSpace()
	for _, mods := range []map[string]string{
		{},
		{"orderline": "ol_o_id"},
		{"customer": "R", "orderline": "ol_o_id"},
	} {
		e.Deploy(buildState(t, sp, mods), nil)
		if got := resultRows(e, g); got != want {
			t.Fatalf("design %v: rows = %d, want %d", mods, got, want)
		}
	}
}

func TestSemijoinCorrectness(t *testing.T) {
	e, data := newEngine(t)
	g := engGraph(t, "SELECT * FROM customer c WHERE c.c_id IN (SELECT o.o_c_id FROM orders o WHERE o.o_amount > 500)")
	// Brute force.
	seen := map[int64]bool{}
	orders := data["orders"]
	for i := 0; i < orders.Rows(); i++ {
		if orders.Col("o_amount")[i] > 500 {
			seen[orders.Col("o_c_id")[i]] = true
		}
	}
	want := 0
	cust := data["customer"]
	for i := 0; i < cust.Rows(); i++ {
		if seen[cust.Col("c_id")[i]] {
			want++
		}
	}
	sp := engSpace()
	for _, mods := range []map[string]string{{}, {"orders": "o_c_id"}, {"customer": "R"}} {
		e.Deploy(buildState(t, sp, mods), nil)
		if got := resultRows(e, g); got != want {
			t.Fatalf("design %v: semijoin rows = %d, want %d", mods, got, want)
		}
	}
}

func TestAntijoinCorrectness(t *testing.T) {
	e, data := newEngine(t)
	g := engGraph(t, "SELECT * FROM customer c WHERE c.c_id NOT IN (SELECT o.o_c_id FROM orders o)")
	seen := map[int64]bool{}
	orders := data["orders"]
	for i := 0; i < orders.Rows(); i++ {
		seen[orders.Col("o_c_id")[i]] = true
	}
	want := 0
	cust := data["customer"]
	for i := 0; i < cust.Rows(); i++ {
		if !seen[cust.Col("c_id")[i]] {
			want++
		}
	}
	e.Deploy(engSpace().InitialState(), nil)
	if got := resultRows(e, g); got != want {
		t.Fatalf("antijoin rows = %d, want %d", got, want)
	}
}

func TestCoLocationIsFasterThanShuffle(t *testing.T) {
	// Use enough rows and a slow interconnect that the avoided shuffle
	// dominates per-node load jitter.
	data := engData(2000, 40000, 0, 7)
	e := New(engSchema(), data, hardware.SystemXMemory().WithSlowNetwork(), Memory)
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	sp := engSpace()
	e.Deploy(buildState(t, sp, map[string]string{"orders": "o_c_id"}), nil)
	coloc := runSec(e, g)
	e.Deploy(sp.InitialState(), nil)
	shuffle := runSec(e, g)
	if coloc >= shuffle {
		t.Fatalf("co-located %v >= shuffle %v", coloc, shuffle)
	}
}

func TestRunDeterministic(t *testing.T) {
	e, _ := newEngine(t)
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	a := runSec(e, g)
	b := runSec(e, g)
	if a != b {
		t.Fatalf("nondeterministic runtime: %v vs %v", a, b)
	}
	if a <= 0 || math.IsNaN(a) {
		t.Fatalf("runtime = %v", a)
	}
}

func TestExecLimitAborts(t *testing.T) {
	e, _ := newEngine(t)
	g := engGraph(t, `SELECT * FROM orderline ol, orders o, customer c
		WHERE ol.ol_o_id = o.o_id AND o.o_c_id = c.c_id`)
	full := runSec(e, g)
	rep, _ := run1(e, g, full/2)
	if !rep.Aborted {
		t.Fatalf("query with limit %v (full %v) not aborted", full/2, full)
	}
	if rep.Seconds > full {
		t.Fatalf("aborted run charged %v > full %v", rep.Seconds, full)
	}
	// Generous limit: no abort.
	if rep, _ := run1(e, g, full*10); rep.Aborted {
		t.Fatalf("query aborted under generous limit")
	}
}

func TestDeployLazyAndAccounting(t *testing.T) {
	e, _ := newEngine(t)
	sp := engSpace()
	st := buildState(t, sp, map[string]string{"customer": "R"})
	before := e.Repartitions
	sec := e.Deploy(st, []string{"customer"})
	if sec <= 0 {
		t.Fatalf("deploy time = %v", sec)
	}
	if e.Repartitions != before+1 {
		t.Fatalf("repartition counter = %d", e.Repartitions)
	}
	// Redeploying is free.
	if sec := e.Deploy(st, []string{"customer"}); sec != 0 {
		t.Fatalf("redeploy cost = %v", sec)
	}
	// Lazy scope: deploying only orders leaves customer replicated.
	st2 := sp.InitialState()
	e.Deploy(st2, []string{"orders"})
	if !e.CurrentDesign("customer").Replicated {
		t.Fatalf("lazy deploy touched customer")
	}
}

func TestEstimateCostFlavors(t *testing.T) {
	data := engData(50, 400, 1200, 2)
	disk := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
	mem := New(engSchema(), data, hardware.SystemXMemory(), Memory)
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	st := engSpace().InitialState()
	if _, ok := disk.EstimateCost(st, g); !ok {
		t.Fatalf("disk flavor must expose estimates")
	}
	if _, ok := mem.EstimateCost(st, g); ok {
		t.Fatalf("memory flavor must not expose estimates")
	}
	// Estimates are deterministic.
	a, _ := disk.EstimateCost(st, g)
	b, _ := disk.EstimateCost(st, g)
	if a != b {
		t.Fatalf("estimates differ: %v vs %v", a, b)
	}
}

func TestBulkLoadStaleness(t *testing.T) {
	e, _ := newEngine(t)
	estBefore := e.estCat.Rows("orders")
	add := relation.New("orders", []string{"o_id", "o_c_id", "o_amount"})
	for i := int64(10000); i < 10200; i++ {
		add.AppendRow(i, i%50, 1)
	}
	e.BulkLoad("orders", add)
	if e.TrueCatalog().Rows("orders") != 600 {
		t.Fatalf("true rows = %d, want 600", e.TrueCatalog().Rows("orders"))
	}
	if e.estCat.Rows("orders") != estBefore {
		t.Fatalf("estimates refreshed without ANALYZE")
	}
	e.Analyze()
	if e.estCat.Rows("orders") != 600 {
		t.Fatalf("ANALYZE did not refresh estimates")
	}
}

func TestBulkLoadKeepsQueriesCorrect(t *testing.T) {
	e, data := newEngine(t)
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	sp := engSpace()
	e.Deploy(buildState(t, sp, map[string]string{"orders": "o_c_id"}), nil)
	before := resultRows(e, g)
	add := relation.New("orders", []string{"o_id", "o_c_id", "o_amount"})
	for i := int64(5000); i < 5100; i++ {
		add.AppendRow(i, i%50, 1)
	}
	e.BulkLoad("orders", add)
	after := resultRows(e, g)
	if after != before+100 {
		t.Fatalf("rows after bulk load = %d, want %d", after, before+100)
	}
	_ = data
}

func TestMemoryFlavorFasterScans(t *testing.T) {
	data := engData(50, 4000, 0, 3)
	disk := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
	mem := New(engSchema(), data, hardware.SystemXMemory(), Memory)
	g := engGraph(t, "SELECT * FROM orders WHERE o_amount > 100")
	if d, m := runSec(disk, g), runSec(mem, g); m >= d {
		t.Fatalf("memory engine not faster: %v vs %v", m, d)
	}
}

func TestSkewedPartitioningSlowsQueries(t *testing.T) {
	// orders partitioned by a 2-valued column: half the cluster idles, the
	// join straggles.
	sch := engSchema()
	data := engData(50, 4000, 0, 4)
	// Overwrite o_amount with a 2-valued column to use as a skewed key.
	am := data["orders"].Col("o_amount")
	for i := range am {
		am[i] = int64(i % 2)
	}
	extra := []schema.JoinEdge{schema.NewJoinEdge("orders", "o_amount", "customer", "c_id")}
	sp := partition.NewSpace(sch, extra, partition.Options{})
	e := New(sch, data, hardware.SystemXMemory(), Memory)
	g, err := sqlparse.ParseAndAnalyze("SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id", sch)
	if err != nil {
		t.Fatal(err)
	}
	stBalanced := buildState(t, sp, map[string]string{"customer": "R"})
	e.Deploy(stBalanced, nil)
	balanced := runSec(e, g)
	stSkewed := buildState(t, sp, map[string]string{"customer": "R", "orders": "o_amount"})
	e.Deploy(stSkewed, nil)
	skewed := runSec(e, g)
	if skewed <= balanced {
		t.Fatalf("skewed partitioning not slower: %v vs %v", skewed, balanced)
	}
}

func TestStatsBuilder(t *testing.T) {
	r := relation.New("t", []string{"a", "b"})
	for i := int64(0); i < 100; i++ {
		r.AppendRow(i, i%4)
	}
	tbl := &schema.Table{Name: "t", Attributes: []schema.Attribute{{Name: "a", Width: 8}, {Name: "b", Width: 8}}}
	ts := BuildTableStats(r, tbl)
	if ts.Rows != 100 || ts.RowWidth != 16 {
		t.Fatalf("stats = %+v", ts)
	}
	if ts.Columns["a"].Distinct != 100 || ts.Columns["b"].Distinct != 4 {
		t.Fatalf("distincts = %+v", ts.Columns)
	}
	if ts.Columns["a"].Min != 0 || ts.Columns["a"].Max != 99 {
		t.Fatalf("bounds = %+v", ts.Columns["a"])
	}
	if len(ts.Columns["a"].Histogram) != histogramBuckets {
		t.Fatalf("histogram = %v", ts.Columns["a"].Histogram)
	}
	// Empty column stats.
	if cs := buildColumnStats(nil); cs.Distinct != 0 {
		t.Fatalf("empty col stats = %+v", cs)
	}
	// Constant column: no histogram.
	cs := buildColumnStats([]int64{7, 7, 7})
	if cs.Distinct != 1 || cs.Histogram != nil {
		t.Fatalf("constant col stats = %+v", cs)
	}
}

func TestFlavorString(t *testing.T) {
	if Disk.String() != "disk" || Memory.String() != "memory" {
		t.Fatalf("flavor strings")
	}
}
