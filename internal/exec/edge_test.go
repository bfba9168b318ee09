package exec

import (
	"strings"
	"testing"

	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/relation"
	"partadvisor/internal/schema"
	"partadvisor/internal/sqlparse"
)

// Additional edge-path coverage for the engine.

func TestEmptyTablesExecute(t *testing.T) {
	// Tables without generated data load empty and queries still run.
	e := New(engSchema(), map[string]*relation.Relation{}, hardware.PostgresXLDisk(), Disk)
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	e.Deploy(engSpace().InitialState(), nil)
	sec := runSec(e, g)
	if sec <= 0 {
		t.Fatalf("empty-table runtime = %v", sec)
	}
	if got := resultRows(e, g); got != 0 {
		t.Fatalf("empty join produced %d rows", got)
	}
}

func TestSingleNodeCluster(t *testing.T) {
	data := engData(20, 100, 200, 8)
	hw := hardware.PostgresXLDisk()
	hw.Nodes = 1
	e := New(engSchema(), data, hw, Disk)
	g := engGraph(t, `SELECT * FROM orderline ol, orders o, customer c
		WHERE ol.ol_o_id = o.o_id AND o.o_c_id = c.c_id`)
	e.Deploy(engSpace().InitialState(), nil)
	if got, want := resultRows(e, g), data["orderline"].Rows(); got != want {
		t.Fatalf("single-node join rows = %d, want %d", got, want)
	}
}

func TestReplicatedScanAbortsUnderLimit(t *testing.T) {
	data := engData(50, 4000, 0, 9)
	e := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
	sp := engSpace()
	st := buildState(t, sp, map[string]string{"orders": "R"})
	e.Deploy(st, nil)
	g := engGraph(t, "SELECT * FROM orders WHERE o_amount > 1")
	full := runSec(e, g)
	// Abort during the scan phase.
	rep, _ := run1(e, g, full*0.5)
	if !rep.Aborted || rep.Seconds <= 0 {
		t.Fatalf("scan-phase abort: %+v", rep)
	}
}

func TestSelfJoinExecutes(t *testing.T) {
	e, data := newEngine(t)
	g := engGraph(t, "SELECT * FROM orders o1, orders o2 WHERE o1.o_c_id = o2.o_id")
	e.Deploy(engSpace().InitialState(), nil)
	// Brute force.
	orders := data["orders"]
	ids := map[int64]int{}
	for i := 0; i < orders.Rows(); i++ {
		ids[orders.Col("o_id")[i]]++
	}
	want := 0
	for i := 0; i < orders.Rows(); i++ {
		want += ids[orders.Col("o_c_id")[i]]
	}
	if got := resultRows(e, g); got != want {
		t.Fatalf("self-join rows = %d, want %d", got, want)
	}
}

func TestCompositeKeyJoinCorrectAndColocated(t *testing.T) {
	// Two tables sharing a compound (w, d) key: joining on both columns
	// must be correct and, when both are hash-partitioned by the compound
	// key, co-located (no network cost).
	attr := func(names ...string) []schema.Attribute {
		out := make([]schema.Attribute, len(names))
		for i, n := range names {
			out[i] = schema.Attribute{Name: n, Width: 8}
		}
		return out
	}
	sch := schema.New("comp",
		[]*schema.Table{
			{Name: "t1", Attributes: attr("a_w", "a_d", "a_v"), PrimaryKey: []string{"a_v"},
				CompoundKeys: [][]string{{"a_w", "a_d"}}},
			{Name: "t2", Attributes: attr("b_w", "b_d", "b_v"), PrimaryKey: []string{"b_v"},
				CompoundKeys: [][]string{{"b_w", "b_d"}}},
		},
		[]schema.ForeignKey{
			{FromTable: "t1", FromAttr: "a_w", ToTable: "t2", ToAttr: "b_w"},
			{FromTable: "t1", FromAttr: "a_d", ToTable: "t2", ToAttr: "b_d"},
		},
	)
	t1 := relation.New("t1", []string{"a_w", "a_d", "a_v"})
	t2 := relation.New("t2", []string{"b_w", "b_d", "b_v"})
	for i := int64(0); i < 2000; i++ {
		t1.AppendRow(i%20, (i/20)%10, i) // independent w and d: 200 combos
	}
	for i := int64(0); i < 200; i++ {
		t2.AppendRow(i%20, (i/20)%10, i)
	}
	// Brute force count.
	want := 0
	for i := 0; i < t1.Rows(); i++ {
		for j := 0; j < t2.Rows(); j++ {
			if t1.Col("a_w")[i] == t2.Col("b_w")[j] && t1.Col("a_d")[i] == t2.Col("b_d")[j] {
				want++
			}
		}
	}
	e := New(sch, map[string]*relation.Relation{"t1": t1, "t2": t2}, hardware.SystemXMemory(), Memory)
	sp := partition.NewSpace(sch, nil, partition.Options{})
	g, err := sqlparse.ParseAndAnalyze("SELECT * FROM t1, t2 WHERE a_w = b_w AND a_d = b_d", sch)
	if err != nil {
		t.Fatal(err)
	}
	// Both by compound key: co-located.
	st := sp.InitialState()
	for _, name := range []string{"t1", "t2"} {
		ti := sp.TableIndex(name)
		var ki int = -1
		for i, k := range sp.Tables[ti].Keys {
			if len(k) == 2 {
				ki = i
			}
		}
		if ki < 0 {
			t.Fatalf("no compound key for %s: %v", name, sp.Tables[ti].Keys)
		}
		st = sp.Apply(st, partition.Action{Kind: partition.ActPartition, Table: ti, Key: ki})
	}
	e.Deploy(st, nil)
	if got := resultRows(e, g); got != want {
		t.Fatalf("compound-key join rows = %d, want %d", got, want)
	}
	coloc := runSec(e, g)
	// Default pk designs: requires movement -> slower on a slow network.
	eSlow := New(sch, map[string]*relation.Relation{"t1": t1.Clone(), "t2": t2.Clone()},
		hardware.SystemXMemory().WithSlowNetwork(), Memory)
	eSlow.Deploy(st, nil)
	colocSlow := runSec(eSlow, g)
	eSlow.Deploy(sp.InitialState(), nil)
	moved := runSec(eSlow, g)
	if got := resultRowsOf(eSlow, g); got != want {
		t.Fatalf("pk-design join rows = %d, want %d", got, want)
	}
	if colocSlow >= moved {
		t.Fatalf("compound co-location not faster on slow net: %v vs %v", colocSlow, moved)
	}
	_ = coloc
}

func resultRowsOf(e *Engine, g *sqlparse.Graph) int {
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

func TestExplainTracesPlan(t *testing.T) {
	e, _ := newEngine(t)
	sp := engSpace()
	g := engGraph(t, `SELECT * FROM orderline ol, orders o, customer c
		WHERE ol.ol_o_id = o.o_id AND o.o_c_id = c.c_id`)

	e.Deploy(sp.InitialState(), nil)
	plan, sec := e.Explain(g)
	if sec <= 0 {
		t.Fatalf("Explain seconds = %v", sec)
	}
	if len(plan) != 5 { // 3 scans + 2 joins
		t.Fatalf("plan = %v", plan)
	}
	joined := strings.Join(plan, "\n")
	for _, want := range []string{"scan orderline", "scan orders", "scan customer", "join"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("plan missing %q:\n%s", want, joined)
		}
	}
	// Co-located design shows a co-located join.
	e.Deploy(buildState(t, sp, map[string]string{"orderline": "ol_o_id"}), nil)
	plan2, _ := e.Explain(g)
	if !strings.Contains(strings.Join(plan2, "\n"), "co-located") {
		t.Fatalf("co-located strategy not chosen/traced:\n%s", strings.Join(plan2, "\n"))
	}
	// Replicated dimension shows the local-join strategy.
	e.Deploy(buildState(t, sp, map[string]string{"customer": "R"}), nil)
	plan3, _ := e.Explain(g)
	if !strings.Contains(strings.Join(plan3, "\n"), "replicated") {
		t.Fatalf("replicated strategy not traced:\n%s", strings.Join(plan3, "\n"))
	}
	// Explain must not alter subsequent measurements.
	a := runSec(e, g)
	b := runSec(e, g)
	if a != b {
		t.Fatalf("Explain perturbed execution: %v vs %v", a, b)
	}
}

func TestClusterAccessor(t *testing.T) {
	e, _ := newEngine(t)
	if e.Cluster() == nil {
		t.Fatalf("Cluster accessor broken")
	}
}
