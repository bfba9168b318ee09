package exec

import (
	"context"
	"math/rand"
	"testing"

	"partadvisor/internal/hardware"
	"partadvisor/internal/relation"
)

// skewData builds the eng schema's data with a celebrity customer: hotFrac
// of all orders reference customer 0, the rest are uniform.
func skewData(nCust, nOrders int, hotFrac float64, seed int64) map[string]*relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	cust := relation.New("customer", []string{"c_id", "c_region"})
	for i := 0; i < nCust; i++ {
		cust.AppendRow(int64(i), int64(rng.Intn(5)))
	}
	orders := relation.New("orders", []string{"o_id", "o_c_id", "o_amount"})
	for i := 0; i < nOrders; i++ {
		c := int64(0)
		if rng.Float64() >= hotFrac {
			c = int64(rng.Intn(nCust))
		}
		orders.AppendRow(int64(i), c, int64(rng.Intn(1000)))
	}
	lines := relation.New("orderline", []string{"ol_id", "ol_o_id", "ol_qty"})
	lines.AppendRow(0, 0, 1)
	return map[string]*relation.Relation{"customer": cust, "orders": orders, "orderline": lines}
}

// totalHeat sums the heat of every table on every node.
func totalHeat(h ShardHeat) int64 {
	var sum int64
	for _, row := range h.Rows {
		for _, v := range row {
			sum += v
		}
	}
	return sum
}

// Full scans must heat each node by exactly its shard's row count, and a
// filtered scan by the emitted (post-filter) rows only.
func TestShardHeatCountsEmittedRows(t *testing.T) {
	e, _ := newEngine(t)
	e.Deploy(engSpace().InitialState(), nil) // hash on primary keys

	if d := e.ShardHeat().Digest(); totalHeat(e.ShardHeat()) != 0 {
		t.Fatalf("fresh engine has heat (digest %x)", d)
	}

	if _, err := run1(e, engGraph(t, "SELECT * FROM orders WHERE o_amount > -1"), 0); err != nil {
		t.Fatalf("execute: %v", err)
	}
	var full int64
	for n, got := range e.ShardHeat().TableRows("orders") {
		if want := e.Cluster().RowsOn("orders", n); got != int64(want) {
			t.Fatalf("node %d: heat %d != shard rows %d", n, got, want)
		}
		full += got
	}

	// A selective filter emits fewer rows than it scans.
	e2, _ := newEngine(t)
	e2.Deploy(engSpace().InitialState(), nil)
	if _, err := run1(e2, engGraph(t, "SELECT * FROM orders WHERE o_amount > 900"), 0); err != nil {
		t.Fatalf("execute: %v", err)
	}
	var filtered int64
	for _, v := range e2.ShardHeat().TableRows("orders") {
		filtered += v
	}
	if filtered == 0 || filtered >= full {
		t.Fatalf("filtered heat %d not in (0, %d)", filtered, full)
	}
}

// A replicated table is scanned on every node's own copy: heat is equal
// across nodes by construction.
func TestShardHeatReplicatedBalanced(t *testing.T) {
	e, _ := newEngine(t)
	e.Deploy(buildState(t, engSpace(), map[string]string{"customer": "R"}), nil)
	if _, err := run1(e, engGraph(t, "SELECT * FROM customer WHERE c_region = 2"), 0); err != nil {
		t.Fatalf("execute: %v", err)
	}
	row := e.ShardHeat().TableRows("customer")
	if row[0] == 0 {
		t.Fatalf("no heat recorded for replicated customer")
	}
	for n, v := range row {
		if v != row[0] {
			t.Fatalf("replicated heat skewed: node %d = %d, node 0 = %d", n, v, row[0])
		}
	}
	if im := e.ShardHeat().Imbalance("customer"); im != 1 {
		t.Fatalf("replicated imbalance = %v, want 1", im)
	}
}

// The celebrity workload: hash-partitioning orders by the skewed customer
// FK concentrates heat on one node; partitioning by the uniform primary
// key stays balanced. This is the signal the hot-shard detector keys on.
func TestShardHeatDetectsSkew(t *testing.T) {
	data := skewData(50, 4000, 0.6, 3)
	g := "SELECT * FROM orders WHERE o_amount > -1"

	hot := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
	hot.Deploy(buildState(t, engSpace(), map[string]string{"orders": "o_c_id"}), nil)
	if _, err := run1(hot, engGraph(t, g), 0); err != nil {
		t.Fatalf("execute: %v", err)
	}
	hotIm := hot.ShardHeat().Imbalance("orders")

	cold := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
	cold.Deploy(buildState(t, engSpace(), map[string]string{"orders": "o_id"}), nil)
	if _, err := run1(cold, engGraph(t, g), 0); err != nil {
		t.Fatalf("execute: %v", err)
	}
	coldIm := cold.ShardHeat().Imbalance("orders")

	if hotIm < 2 {
		t.Fatalf("celebrity-key imbalance = %v, want >= 2", hotIm)
	}
	if coldIm > 1.5 {
		t.Fatalf("uniform-key imbalance = %v, want near 1", coldIm)
	}
}

// The worker-sweep half of the determinism contract: the cumulative heat
// matrix after a parallel batch is bit-identical at every worker count,
// and identical to running the queries one by one.
func TestShardHeatWorkerSweepBitIdentical(t *testing.T) {
	data := engData(50, 400, 1200, 1)
	gs := batchGraphs(t)

	seq := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
	for _, g := range gs {
		if _, err := run1(seq, g, 0); err != nil {
			t.Fatalf("execute: %v", err)
		}
	}
	want := seq.ShardHeat().Digest()
	if want == (ShardHeat{}).Digest() {
		t.Fatalf("sequential run recorded no heat")
	}

	for _, workers := range []int{1, 2, 4, 0} {
		e := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
		e.Exec(context.Background(), Request{Queries: Queries(gs, 0), Workers: workers})
		if got := e.ShardHeat().Digest(); got != want {
			t.Fatalf("workers=%d: heat digest %x != sequential %x", workers, got, want)
		}
	}
}

// Aborted batches charge heat for exactly the delivered prefix: a canary
// abort raised from onResult at a fixed position yields the same heat
// matrix at every worker count — speculatively executed later positions
// contribute nothing.
func TestShardHeatAbortChargedPrefixOnly(t *testing.T) {
	data := engData(50, 400, 1200, 1)
	gs := batchGraphs(t)
	cut := 5

	run := func(workers int) (uint64, int) {
		e := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
		abort := &BatchAbort{}
		rep := e.Exec(context.Background(), Request{Queries: Queries(gs, 0), Workers: workers, Abort: abort,
			OnResult: func(pos int, _ RunReport, _ error) {
				if pos == cut {
					abort.Set()
				}
			}})
		return e.ShardHeat().Digest(), rep.Completed
	}

	want, completed := run(1)
	if completed != cut+1 {
		t.Fatalf("sequential completed %d, want %d", completed, cut+1)
	}
	for _, workers := range []int{2, 4, 0} {
		got, c := run(workers)
		if c != cut+1 {
			t.Fatalf("workers=%d completed %d, want %d", workers, c, cut+1)
		}
		if got != want {
			t.Fatalf("workers=%d: aborted-batch heat %x != sequential %x", workers, got, want)
		}
	}

	// The aborted prefix heats strictly less than the full batch.
	full := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
	full.Exec(context.Background(), Request{Queries: Queries(gs, 0)})
	e := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
	abort := &BatchAbort{}
	e.Exec(context.Background(), Request{Queries: Queries(gs, 0), Workers: 4, Abort: abort,
		OnResult: func(pos int, _ RunReport, _ error) {
			if pos == cut {
				abort.Set()
			}
		}})
	fullTotal, cutTotal := totalHeat(full.ShardHeat()), totalHeat(e.ShardHeat())
	if cutTotal == 0 || cutTotal >= fullTotal {
		t.Fatalf("aborted heat %d not in (0, %d)", cutTotal, fullTotal)
	}
}

// Explain and what-if evaluations are diagnostics: they must not heat the
// deployed shards.
func TestShardHeatDiagnosticsRecordNothing(t *testing.T) {
	e, _ := newEngine(t)
	e.Deploy(engSpace().InitialState(), nil)
	before := e.ShardHeat().Digest()

	gs := batchGraphs(t)
	e.Explain(gs[0])
	e.Exec(context.Background(), Request{Queries: Queries(gs, 0), Workers: 2,
		Design: buildState(t, engSpace(), map[string]string{"customer": "R"})})
	if got := e.ShardHeat().Digest(); got != before {
		t.Fatalf("diagnostics changed heat: %x != %x", got, before)
	}
}
