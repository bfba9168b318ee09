package exec

import (
	"testing"

	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
)

func mitEngSpace() *partition.Space {
	return partition.NewSpace(engSchema(), nil, partition.Options{EnableMitigations: true})
}

// mitState builds a state with orders hash-partitioned by o_c_id plus the
// given mitigation actions applied.
func mitState(t *testing.T, sp *partition.Space, kinds ...partition.ActionKind) *partition.State {
	t.Helper()
	st := buildState(t, sp, map[string]string{"orders": "o_c_id"})
	ti := sp.TableIndex("orders")
	for _, k := range kinds {
		a := partition.Action{Kind: k, Table: ti}
		if !sp.Valid(st, a) {
			t.Fatalf("action %s invalid", sp.ActionString(a))
		}
		st = sp.Apply(st, a)
	}
	return st
}

// Deploying a mitigated state must carry the salt/hot-split fields through
// designOf into the cluster layout.
func TestMitigatedDeployMapsDesign(t *testing.T) {
	sp := mitEngSpace()
	data := skewData(50, 4000, 0.6, 3)

	e := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
	e.Deploy(mitState(t, sp, partition.ActSaltKey), nil)
	d := e.CurrentDesign("orders")
	if d.Salt != partition.SaltFactor || d.HotSplit || len(d.Key) != 1 || d.Key[0] != "o_c_id" {
		t.Fatalf("salted deploy design = %+v", d)
	}

	e.Deploy(mitState(t, sp, partition.ActHotSplit), nil)
	d = e.CurrentDesign("orders")
	if !d.HotSplit || d.Salt != 0 {
		t.Fatalf("hot-split deploy design = %+v", d)
	}
}

// The celebrity workload melts a plain hash layout on the hot key; both
// mitigations must pull the heat imbalance down substantially.
func TestMitigationsRebalanceHeat(t *testing.T) {
	sp := mitEngSpace()
	data := skewData(50, 4000, 0.6, 3)
	g := "SELECT * FROM orders WHERE o_amount > -1"

	imbalanceOf := func(st *partition.State) float64 {
		e := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
		e.Deploy(st, nil)
		if _, err := run1(e, engGraph(t, g), 0); err != nil {
			t.Fatalf("execute: %v", err)
		}
		return e.ShardHeat().Imbalance("orders")
	}

	plain := imbalanceOf(mitState(t, sp))
	salted := imbalanceOf(mitState(t, sp, partition.ActSaltKey))
	split := imbalanceOf(mitState(t, sp, partition.ActHotSplit))

	if plain < 2 {
		t.Fatalf("celebrity baseline imbalance = %v, want >= 2", plain)
	}
	if salted >= plain*0.75 {
		t.Fatalf("salting did not rebalance: %v vs plain %v", salted, plain)
	}
	if split >= plain*0.75 {
		t.Fatalf("hot-split did not rebalance: %v vs plain %v", split, plain)
	}
	// Hot-split targets exactly the celebrity key, so on this trace it must
	// end up close to balanced.
	if split > 1.5 {
		t.Fatalf("hot-split imbalance = %v, want near 1", split)
	}
}

// Mitigated layouts spread equal key values across nodes, so the join
// planner must not zip their shards as co-partitioned: results stay correct
// under every mitigation combination.
func TestMitigatedJoinCorrectness(t *testing.T) {
	sp := mitEngSpace()
	data := skewData(50, 4000, 0.6, 3)
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id AND c.c_region = 2")
	want := bruteOrdersCustomer(data, 2, true)
	if want == 0 {
		t.Fatalf("degenerate fixture: no matching rows")
	}

	cases := [][]partition.ActionKind{
		nil,
		{partition.ActSaltKey},
		{partition.ActHotSplit},
		{partition.ActSaltKey, partition.ActHotSplit},
	}
	for _, kinds := range cases {
		e := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
		e.Deploy(mitState(t, sp, kinds...), nil)
		if got := resultRows(e, g); got != want {
			t.Fatalf("mitigations %v: join rows = %d, want %d", kinds, got, want)
		}
	}
}

// Clearing a mitigation by re-partitioning on the same key restores the
// plain hash layout (and its co-partitioned join locality is safe again).
func TestMitigationClearedRestoresPlainHash(t *testing.T) {
	sp := mitEngSpace()
	data := skewData(50, 4000, 0.6, 3)
	e := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)

	st := mitState(t, sp, partition.ActSaltKey)
	e.Deploy(st, nil)

	ti := sp.TableIndex("orders")
	clear := partition.Action{Kind: partition.ActPartition, Table: ti, Key: st.Tables[ti].Key}
	st = sp.Apply(st, clear)
	e.Deploy(st, nil)
	d := e.CurrentDesign("orders")
	if d.Salt != 0 || d.HotSplit {
		t.Fatalf("mitigation survived clearing deploy: %+v", d)
	}
	// Conservation identity holds across mitigation deploys.
	_, _, moved := e.Counters()
	if moved != e.DeployedBytes+e.RepairedBytes {
		t.Fatalf("BytesMoved %d != DeployedBytes %d + RepairedBytes %d", moved, e.DeployedBytes, e.RepairedBytes)
	}
}
