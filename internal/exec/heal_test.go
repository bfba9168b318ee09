package exec

import (
	"errors"
	"math"
	"testing"

	"partadvisor/internal/faults"
)

// partitionCut returns an injector with nodes 0,1 cut from 2,3 during
// [start, end).
func partitionCut(t *testing.T, start, end float64) *faults.Injector {
	t.Helper()
	in, err := faults.New(faults.Config{
		Partitions: []faults.NetPartition{
			{Groups: [][]int{{0, 1}}, Window: faults.Window{Start: start, End: end}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// A hash-partitioned join needs every node's shards; during a partition
// the far side is alive but unreachable, so the query must fail with a
// PartitionError rather than shuffle across the cut — and succeed again
// once the partition heals.
func TestPartitionFailsCrossPartitionQuery(t *testing.T) {
	e, _ := newEngine(t)
	e.Deploy(engSpace().InitialState(), nil) // every table hash-partitioned
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	full := runSec(e, g)

	e.SetFaults(partitionCut(t, 0, 5))
	rep, err := run1(e, g, 0)
	var pe *PartitionError
	if !errors.As(err, &pe) {
		t.Fatalf("cross-partition query: err = %v, want PartitionError", err)
	}
	if !errors.Is(err, ErrPartitioned) {
		t.Fatal("PartitionError does not unwrap to ErrPartitioned")
	}
	if errors.Is(err, ErrNodeDown) || errors.Is(err, ErrShardLost) {
		t.Fatal("partition misclassified as a node/shard loss")
	}
	if pe.Node != 2 && pe.Node != 3 {
		t.Fatalf("unreachable node %d is on the coordinator side", pe.Node)
	}
	if isTransient(err) {
		t.Fatal("partition misclassified as transient")
	}
	if rep.Seconds <= 0 || rep.Seconds >= full {
		t.Fatalf("failed run consumed %v seconds (full run: %v)", rep.Seconds, full)
	}

	e.AdvanceClock(10) // partition heals
	if _, err := run1(e, g, 0); err != nil {
		t.Fatalf("query after the partition healed failed: %v", err)
	}
}

// Replicated tables keep serving during a partition: the scan fails over
// to a copy on the coordinator's side of the cut.
func TestReplicatedFailoverWithinPartition(t *testing.T) {
	e, _ := newEngine(t)
	e.Deploy(buildState(t, engSpace(), map[string]string{
		"orders": "R", "customer": "R", "orderline": "R",
	}), nil)
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	e.SetFaults(partitionCut(t, 0, 1e9))
	rep, err := run1(e, g, 0)
	if err != nil {
		t.Fatalf("replicated query did not fail over inside the partition: %v", err)
	}
	if rep.Seconds <= 0 {
		t.Fatalf("failover run consumed %v seconds", rep.Seconds)
	}
}

// A deploy that lands while a node is crashed leaves that node stale; on
// rejoin the self-healing layer ships the minimal catch-up and the books
// balance: BytesMoved = DeployedBytes + RepairedBytes, and RepairedBytes
// equals the repair-log sum.
func TestSelfHealRepairsRejoinedNode(t *testing.T) {
	e, _ := newEngine(t)
	e.SetFaults(faults.MustNew(faults.Config{
		Crashes: []faults.NodeCrash{{Node: 1, Window: faults.Window{Start: 0, End: 5}}},
	}))
	e.SetSelfHeal(true)
	e.Deploy(engSpace().InitialState(), nil) // node 1 misses every table
	e.AdvanceClock(10)                       // node 1 rejoins at t=5
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	if _, err := run1(e, g, 0); err != nil { // first work after rejoin heals
		t.Fatalf("query after rejoin+repair failed: %v", err)
	}

	repairs, bytes := e.RepairStats()
	if repairs != 1 || bytes <= 0 {
		t.Fatalf("rejoin produced %d repairs, %d bytes; want 1 repair with bytes > 0", repairs, bytes)
	}
	log := e.RepairLog()
	var logBytes int64
	var logSecs float64
	for _, r := range log {
		logBytes += r.Bytes
		logSecs += r.Seconds
	}
	if logBytes != bytes {
		t.Fatalf("repair log sums to %d bytes, counter says %d", logBytes, bytes)
	}
	if logSecs <= 0 {
		t.Fatal("repair charged zero simulated seconds")
	}
	if log[0].Node != 1 || log[0].At != 5 {
		t.Fatalf("repair record = %+v, want node 1 at t=5", log[0])
	}
	if e.BytesMoved != e.DeployedBytes+e.RepairedBytes {
		t.Fatalf("conservation broken: moved %d != deployed %d + repaired %d",
			e.BytesMoved, e.DeployedBytes, e.RepairedBytes)
	}
}

// A node that was down but missed no mutation needs no repair — its local
// storage survived the crash and is still current.
func TestSelfHealSkipsNodeThatMissedNothing(t *testing.T) {
	e, _ := newEngine(t)
	e.Deploy(engSpace().InitialState(), nil) // deploy before the schedule is armed
	e.SetFaults(faults.MustNew(faults.Config{
		Crashes: []faults.NodeCrash{{Node: 1, Window: faults.Window{Start: 0, End: 5}}},
	}))
	e.SetSelfHeal(true)
	e.AdvanceClock(10)
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	if _, err := run1(e, g, 0); err != nil {
		t.Fatalf("query after rejoin failed: %v", err)
	}
	if repairs, bytes := e.RepairStats(); repairs != 0 || bytes != 0 {
		t.Fatalf("nothing was missed but repair moved %d bytes in %d repairs", bytes, repairs)
	}
}

// A permanently lost node never rejoins, so nothing is ever repaired — the
// missed-mutation debt just stays pending.
func TestSelfHealNeverRepairsPermanentLoss(t *testing.T) {
	e, _ := newEngine(t)
	e.SetFaults(faults.MustNew(faults.Config{
		Crashes: []faults.NodeCrash{{Node: 1, Window: faults.Window{Start: 0, End: math.Inf(1)}}},
	}))
	e.SetSelfHeal(true)
	e.Deploy(engSpace().InitialState(), nil)
	e.AdvanceClock(1e6)
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	if _, err := run1(e, g, 0); !errors.Is(err, ErrShardLost) {
		t.Fatalf("query with a permanently lost shard: err = %v, want ErrShardLost", err)
	}
	if repairs, _ := e.RepairStats(); repairs != 0 {
		t.Fatalf("permanent loss triggered %d repairs", repairs)
	}
}
