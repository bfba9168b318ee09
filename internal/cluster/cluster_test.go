package cluster

import (
	"testing"

	"partadvisor/internal/relation"
)

func loadCluster(t *testing.T) *Cluster {
	t.Helper()
	c := New(4)
	r := relation.New("orders", []string{"o_id", "o_c"})
	for i := int64(0); i < 1000; i++ {
		r.AppendRow(i, i%100)
	}
	c.Load("orders", r, 16)
	return c
}

// shardRows returns the per-node row counts of a table.
func shardRows(c *Cluster, name string) []int {
	out := make([]int, c.n)
	for n := range out {
		out[n] = c.RowsOn(name, n)
	}
	return out
}

func TestLoadRoundRobin(t *testing.T) {
	c := loadCluster(t)
	if c.n != 4 {
		t.Fatalf("nodes = %d", c.n)
	}
	rows := shardRows(c, "orders")
	for i, n := range rows {
		if n != 250 {
			t.Fatalf("shard %d = %d rows", i, n)
		}
	}
	if d := c.Design("orders"); d.Replicated || len(d.Key) != 0 {
		t.Fatalf("initial design = %v", d)
	}
	if c.RowWidth("orders") != 16 {
		t.Fatalf("RowWidth = %d", c.RowWidth("orders"))
	}
}

func TestDeployHashPartition(t *testing.T) {
	c := loadCluster(t)
	moved := c.Deploy("orders", Design{Key: []string{"o_id"}})
	if moved <= 0 || moved > 1000*16 {
		t.Fatalf("bytesMoved = %d", moved)
	}
	shards, _, repl := c.Shards("orders")
	if repl {
		t.Fatalf("unexpectedly replicated")
	}
	total := 0
	for _, s := range shards {
		total += s.Rows()
	}
	if total != 1000 {
		t.Fatalf("shards total = %d", total)
	}
	// Redeploying the same design is free.
	if again := c.Deploy("orders", Design{Key: []string{"o_id"}}); again != 0 {
		t.Fatalf("same-design deploy moved %d bytes", again)
	}
}

func TestDeployReplicate(t *testing.T) {
	c := loadCluster(t)
	moved := c.Deploy("orders", Design{Replicated: true})
	want := int64(1000) * 16 * 3 // (N-1) full copies
	if moved != want {
		t.Fatalf("replicate moved %d bytes, want %d", moved, want)
	}
	_, replica, repl := c.Shards("orders")
	if !repl || replica.Rows() != 1000 {
		t.Fatalf("replica state wrong")
	}
	// Replicated -> partitioned drops locally: free.
	if moved := c.Deploy("orders", Design{Key: []string{"o_c"}}); moved != 0 {
		t.Fatalf("replicated->partitioned moved %d bytes", moved)
	}
}

func TestDeployRepartitionMovesOnlyChangedRows(t *testing.T) {
	c := loadCluster(t)
	c.Deploy("orders", Design{Key: []string{"o_id"}})
	moved := c.Deploy("orders", Design{Key: []string{"o_c"}})
	// Roughly 3/4 of rows change node under an independent hash.
	if moved < 1000*16/2 || moved > 1000*16 {
		t.Fatalf("repartition moved %d bytes", moved)
	}
}

func TestDeployBackToRoundRobin(t *testing.T) {
	c := loadCluster(t)
	c.Deploy("orders", Design{Key: []string{"o_id"}})
	moved := c.Deploy("orders", Design{})
	if moved <= 0 {
		t.Fatalf("round-robin redeploy moved %d bytes", moved)
	}
	rows := shardRows(c, "orders")
	for i, n := range rows {
		if n != 250 {
			t.Fatalf("shard %d = %d rows", i, n)
		}
	}
}

func TestAppendFollowsDesign(t *testing.T) {
	c := loadCluster(t)
	c.Deploy("orders", Design{Key: []string{"o_id"}})
	before := shardRows(c, "orders")
	add := relation.New("orders", []string{"o_id", "o_c"})
	for i := int64(1000); i < 1400; i++ {
		add.AppendRow(i, i%100)
	}
	c.Append("orders", add)
	after := shardRows(c, "orders")
	total := 0
	for i := range after {
		if after[i] < before[i] {
			t.Fatalf("shard %d shrank", i)
		}
		total += after[i]
	}
	if total != 1400 {
		t.Fatalf("total rows after append = %d", total)
	}
	if c.Base("orders").Rows() != 1400 {
		t.Fatalf("base rows = %d", c.Base("orders").Rows())
	}
}

func TestAppendReplicated(t *testing.T) {
	c := loadCluster(t)
	c.Deploy("orders", Design{Replicated: true})
	add := relation.New("orders", []string{"o_id", "o_c"})
	add.AppendRow(5000, 1)
	c.Append("orders", add)
	_, replica, _ := c.Shards("orders")
	if replica.Rows() != 1001 {
		t.Fatalf("replica rows = %d", replica.Rows())
	}
}

func TestDesignEqualAndString(t *testing.T) {
	a := Design{Key: []string{"x"}}
	if !a.Equal(Design{Key: []string{"x"}}) {
		t.Fatalf("Equal broken")
	}
	if a.Equal(Design{Key: []string{"y"}}) || a.Equal(Design{Replicated: true}) || a.Equal(Design{Key: []string{"x", "y"}}) {
		t.Fatalf("Equal too lax")
	}
	if (Design{Replicated: true}).String() != "REPLICATE" {
		t.Fatalf("String REPLICATE")
	}
	if (Design{}).String() != "ROUNDROBIN" {
		t.Fatalf("String ROUNDROBIN")
	}
	if (Design{Key: []string{"x"}}).String() != "HASH([x])" {
		t.Fatalf("String = %q", Design{Key: []string{"x"}}.String())
	}
}

func TestPanics(t *testing.T) {
	c := loadCluster(t)
	for name, f := range map[string]func(){
		"zero nodes":    func() { New(0) },
		"unknown table": func() { c.Design("nope") },
		"zero width":    func() { c.Load("x", relation.New("x", []string{"a"}), 0) },
		"bad key":       func() { c.Deploy("orders", Design{Key: []string{"zz"}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSkewedKeyCreatesImbalancedShards(t *testing.T) {
	c := New(4)
	r := relation.New("t", []string{"d"})
	for i := int64(0); i < 1000; i++ {
		r.AppendRow(i % 3) // 3 distinct values
	}
	c.Load("t", r, 8)
	c.Deploy("t", Design{Key: []string{"d"}})
	rows := shardRows(c, "t")
	empty := 0
	for _, n := range rows {
		if n == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatalf("expected empty shard under 3-value key: %v", rows)
	}
}

func TestAvailabilityHelpers(t *testing.T) {
	c := loadCluster(t)
	r := relation.New("region", []string{"r_id"})
	for i := int64(0); i < 5; i++ {
		r.AppendRow(i)
	}
	c.Load("region", r, 8)
	c.Deploy("orders", Design{Key: []string{"o_id"}})
	c.Deploy("region", Design{Replicated: true})

	if got := c.RowsOn("region", 2); got != 5 {
		t.Fatalf("RowsOn(region, 2) = %d, want full replica of 5", got)
	}
	if got := c.RowsOn("orders", 0); got <= 0 {
		t.Fatalf("RowsOn(orders, 0) = %d, want a non-empty shard", got)
	}
	if got := c.RowsOn("orders", 99); got != 0 {
		t.Fatalf("RowsOn on out-of-range node = %d, want 0", got)
	}

	node1Down := func(n int) bool { return n == 1 }
	if c.Available("orders", node1Down) {
		t.Error("partitioned orders should be unavailable with node 1 down")
	}
	if !c.Available("region", node1Down) {
		t.Error("replicated region should fail over to surviving nodes")
	}
	if c.Available("region", func(int) bool { return true }) {
		t.Error("replicated region cannot survive losing every node")
	}

	// A partitioned table stays available when only nodes holding empty
	// shards are down.
	sk := relation.New("skewed", []string{"d"})
	for i := 0; i < 100; i++ {
		sk.AppendRow(int64(0)) // single value: all rows hash to one shard
	}
	c.Load("skewed", sk, 8)
	c.Deploy("skewed", Design{Key: []string{"d"}})
	rows := shardRows(c, "skewed")
	full := -1
	for i, n := range rows {
		if n > 0 {
			full = i
		}
	}
	if !c.Available("skewed", func(n int) bool { return n != full }) {
		t.Error("losing only empty shards should not make the table unavailable")
	}
}
