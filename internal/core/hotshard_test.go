package core

import (
	"math/rand"
	"testing"

	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/relation"
	"partadvisor/internal/schema"
	"partadvisor/internal/workload"
)

// heatSnap builds a cumulative single-table ShardHeat snapshot.
func heatSnap(rows ...int64) exec.ShardHeat {
	return exec.ShardHeat{Tables: []string{"orders"}, Nodes: len(rows), Rows: [][]int64{rows}}
}

// add returns prev + delta (cumulative counters are monotone).
func addHeat(prev exec.ShardHeat, delta ...int64) exec.ShardHeat {
	rows := make([]int64, len(delta))
	for i := range rows {
		rows[i] = prev.Rows[0][i] + delta[i]
	}
	return heatSnap(rows...)
}

func TestHotShardDetectorWindows(t *testing.T) {
	d := NewHotShardDetector()

	h := heatSnap(10, 10, 10, 10)
	if _, hot := d.Observe(h); hot {
		t.Fatalf("balanced window reported hot")
	}
	// First hot window: streak 1 of 2, no report yet.
	h = addHeat(h, 100, 1, 1, 1)
	if _, hot := d.Observe(h); hot {
		t.Fatalf("reported before patience exhausted")
	}
	// Second consecutive hot window: report, hottest node resolved.
	h = addHeat(h, 90, 2, 2, 2)
	rep, hot := d.Observe(h)
	if !hot {
		t.Fatalf("sustained hot shard not reported")
	}
	if rep.Table != "orders" || rep.Node != 0 || rep.Windows != 2 || rep.Imbalance < 2 {
		t.Fatalf("report = %+v", rep)
	}
	// The streak reset with the report: one more hot window does not re-fire.
	h = addHeat(h, 100, 0, 0, 0)
	if _, hot := d.Observe(h); hot {
		t.Fatalf("re-fired immediately after a report")
	}
	// A balanced window in between resets the streak entirely.
	h = addHeat(h, 50, 50, 50, 50)
	if _, hot := d.Observe(h); hot {
		t.Fatalf("balanced window reported hot")
	}
	h = addHeat(h, 100, 1, 1, 1)
	if _, hot := d.Observe(h); hot {
		t.Fatalf("streak survived a balanced window")
	}
}

func TestHotShardDetectorQuietLull(t *testing.T) {
	d := NewHotShardDetector()
	h := heatSnap(0, 0, 0, 0)
	d.Observe(h)
	h = addHeat(h, 100, 1, 1, 1)
	if _, hot := d.Observe(h); hot {
		t.Fatalf("reported at streak 1")
	}
	// An idle window (below hotMinRows) must neither grow nor reset the
	// streak: the celebrity is still a celebrity during a lull.
	h = addHeat(h, 0, 0, 0, 0)
	if _, hot := d.Observe(h); hot {
		t.Fatalf("quiet window reported hot")
	}
	h = addHeat(h, 100, 1, 1, 1)
	if _, hot := d.Observe(h); !hot {
		t.Fatalf("streak lost across a quiet lull")
	}

	d.Reset()
	h = addHeat(h, 200, 0, 0, 0)
	if _, hot := d.Observe(h); hot {
		t.Fatalf("report right after Reset (needs fresh patience)")
	}
}

// celebrityFixture builds a two-table schema with a celebrity customer: 60%
// of all orders reference customer 0, so hash-partitioning orders by the
// customer FK melts one shard. The workload is a scan-dominated mix where
// balancing the orders shards is a clear win.
func celebrityFixture(t *testing.T) (*workload.Workload, *partition.Space, *exec.Engine) {
	t.Helper()
	attr := func(names ...string) []schema.Attribute {
		out := make([]schema.Attribute, len(names))
		for i, n := range names {
			out[i] = schema.Attribute{Name: n, Width: 8}
		}
		return out
	}
	sch := schema.New("celebrity",
		[]*schema.Table{
			{Name: "customer", Attributes: attr("c_id", "c_region"), PrimaryKey: []string{"c_id"}},
			{Name: "orders", Attributes: attr("o_id", "o_c_id", "o_amount"), PrimaryKey: []string{"o_id"}},
		},
		[]schema.ForeignKey{{FromTable: "orders", FromAttr: "o_c_id", ToTable: "customer", ToAttr: "c_id"}},
	)
	wl := workload.MustParse("celebrity", sch, map[string]string{
		"scan": "SELECT * FROM orders WHERE o_amount > -1",
	}, []string{"scan"}, 0)
	sp := partition.NewSpace(sch, nil, partition.Options{EnableMitigations: true})

	rng := rand.New(rand.NewSource(3))
	cust := relation.New("customer", []string{"c_id", "c_region"})
	for i := 0; i < 50; i++ {
		cust.AppendRow(int64(i), int64(rng.Intn(5)))
	}
	orders := relation.New("orders", []string{"o_id", "o_c_id", "o_amount"})
	for i := 0; i < 4000; i++ {
		c := int64(0)
		if rng.Float64() >= 0.6 {
			c = int64(rng.Intn(50))
		}
		orders.AppendRow(int64(i), c, int64(rng.Intn(1000)))
	}
	data := map[string]*relation.Relation{"customer": cust, "orders": orders}
	return wl, sp, exec.New(sch, data, hardware.PostgresXLDisk(), exec.Disk)
}

// The full loop: sustained skew detected from engine heat deltas, guarded
// mitigation measured through OnlineCost, adopted because it is cheaper,
// and the post-mitigation heat is actually balanced.
func TestMitigateHotShardEndToEnd(t *testing.T) {
	wl, sp, e := celebrityFixture(t)
	oc := NewOnlineCost(e, wl, nil)
	freq := wl.UniformFreq()

	oi := sp.TableIndex("orders")
	ki := sp.Tables[oi].KeyIndex(partition.Key{"o_c_id"})
	if ki < 0 {
		t.Fatalf("o_c_id not a candidate key")
	}
	hot := sp.Apply(sp.InitialState(), partition.Action{Kind: partition.ActPartition, Table: oi, Key: ki})
	hotCost := oc.WorkloadCost(hot, freq)

	// Drive query windows until the detector alarms on sustained skew.
	det := NewHotShardDetector()
	g := wl.Queries[0].Graph
	var rep HotReport
	found := false
	for w := 0; w < 4 && !found; w++ {
		if err := run1(e, g); err != nil {
			t.Fatalf("execute: %v", err)
		}
		rep, found = det.Observe(e.ShardHeat())
	}
	if !found || rep.Table != "orders" {
		t.Fatalf("detector missed the celebrity shard (found=%v rep=%+v)", found, rep)
	}

	pre := e.ShardHeat()
	st, cost, improved := MitigateHotShard(oc, hot, freq, rep.Table)
	if !improved {
		t.Fatalf("no mitigation adopted on a melting shard")
	}
	if cost >= hotCost {
		t.Fatalf("adopted mitigation cost %v >= hot cost %v", cost, hotCost)
	}
	if d := st.Tables[oi]; d.Salt == 0 && !d.HotSplit {
		t.Fatalf("adopted state carries no mitigation: %+v", d)
	}
	// The winner is deployed and the next window's heat delta is balanced.
	dep := e.CurrentDesign("orders")
	if dep.Salt == 0 && !dep.HotSplit {
		t.Fatalf("winning mitigation not deployed: %+v", dep)
	}
	if err := run1(e, g); err != nil {
		t.Fatalf("execute: %v", err)
	}
	if im := e.ShardHeat().Sub(pre).Imbalance("orders"); im >= rep.Imbalance {
		t.Fatalf("post-mitigation window imbalance %v not below pre %v", im, rep.Imbalance)
	}
}

// Without mitigation actions in the space there is nothing to propose: the
// loop reports no improvement and leaves the deployment alone.
func TestMitigateHotShardNoActionsAvailable(t *testing.T) {
	wl, _, e := celebrityFixture(t)
	base := partition.NewSpace(e.Schema, nil, partition.Options{})
	oc := NewOnlineCost(e, wl, nil)
	freq := wl.UniformFreq()
	st := base.InitialState()
	c0 := oc.WorkloadCost(st, freq)
	got, cost, improved := MitigateHotShard(oc, st, freq, "orders")
	if improved || got != st || cost != c0 {
		t.Fatalf("mitigated without mitigation actions: improved=%v cost=%v", improved, cost)
	}
	if len(ProposeMitigations(base, st, "orders")) != 0 {
		t.Fatalf("base space proposed mitigations")
	}
}

func TestProposeMitigationsOrderAndValidity(t *testing.T) {
	_, sp, _ := celebrityFixture(t)
	st := sp.InitialState()
	plans := ProposeMitigations(sp, st, "orders")
	if len(plans) != 2 ||
		plans[0].Action.Kind != partition.ActHotSplit ||
		plans[1].Action.Kind != partition.ActSaltKey {
		t.Fatalf("plans = %+v, want hot-split then salt", plans)
	}
	// A replicated table proposes nothing.
	ci := sp.TableIndex("customer")
	repl := sp.Apply(st, partition.Action{Kind: partition.ActReplicate, Table: ci})
	if got := ProposeMitigations(sp, repl, "customer"); len(got) != 0 {
		t.Fatalf("replicated table proposed %+v", got)
	}
	if got := ProposeMitigations(sp, st, "nope"); got != nil {
		t.Fatalf("unknown table proposed %+v", got)
	}
}

func TestDecideAheadUsesForecast(t *testing.T) {
	a, sp, cost := plannerFixture(t)
	current := sp.InitialState()
	move := func(*partition.State) float64 { return 0.001 }
	p := RepartitionPlanner{Horizon: 1e9, Margin: 1}

	size := len(a.WL.UniformFreq())
	f, err := workload.NewForecaster(size, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	// Before any observation: explicit non-move, never a nil target.
	d0, err := p.DecideAhead(a, f, 3, current, cost, move)
	if err != nil {
		t.Fatal(err)
	}
	if d0.Apply || d0.Target != current {
		t.Fatalf("unobserved forecaster decided to move: %+v", d0)
	}

	mix := make(workload.FreqVector, size)
	for i := range mix {
		mix[i] = 1
	}
	for w := 0; w < 3; w++ {
		if err := f.Observe(mix); err != nil {
			t.Fatal(err)
		}
	}
	ahead, err := p.DecideAhead(a, f, 2, current, cost, move)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := p.Decide(a, f.Forecast(2), current, cost, move)
	if err != nil {
		t.Fatal(err)
	}
	if ahead.Apply != direct.Apply || ahead.CurrentCost != direct.CurrentCost ||
		ahead.TargetCost != direct.TargetCost || !ahead.Target.Equal(direct.Target) {
		t.Fatalf("DecideAhead %+v != Decide-on-forecast %+v", ahead, direct)
	}
}

// Satellite coverage for DriftDetector edges: a single observation only
// seeds the baseline, perfectly constant costs (including zero) never
// trigger, and the baseline is frozen during a violation streak so a
// sustained regression cannot drag the reference up after itself.
func TestDriftDetectorEdgeCases(t *testing.T) {
	d := &DriftDetector{Threshold: 0.3, Patience: 2, Alpha: 0.5}
	if d.Observe(5) {
		t.Fatalf("single observation triggered")
	}
	if d.Baseline() != 5 {
		t.Fatalf("baseline = %v after first observation", d.Baseline())
	}

	z := &DriftDetector{Threshold: 0.3, Patience: 2, Alpha: 0.5}
	for i := 0; i < 10; i++ {
		if z.Observe(0) {
			t.Fatalf("constant zero cost triggered at %d", i)
		}
	}
	if z.Baseline() != 0 {
		t.Fatalf("zero baseline drifted to %v", z.Baseline())
	}

	fr := &DriftDetector{Threshold: 0.3, Patience: 3, Alpha: 1}
	fr.Observe(1)
	fr.Observe(10) // violation 1
	if fr.Baseline() != 1 {
		t.Fatalf("baseline moved during violation: %v", fr.Baseline())
	}
	fr.Observe(10) // violation 2
	if !fr.Observe(10) {
		t.Fatalf("patience 3 did not fire on third violation")
	}
}
