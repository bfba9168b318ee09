package exec

import (
	"partadvisor/internal/faults"
)

// Self-healing layer: when armed via SetSelfHeal, the engine tracks which
// nodes miss table mutations (deploys, bulk loads) while crashed or
// partitioned away, watches the fault schedule for rejoin/heal events, and
// repairs each returning node with the minimal catch-up plan computed by
// the cluster (internal/cluster/repair.go). Repair tuple movement is
// charged through the hardware profile exactly like a deploy: bytes over
// the (possibly degraded) interconnect plus a per-table setup overhead.
//
// The layer is opt-in and default-off: with it disarmed, engines behave
// bit-identically to previous revisions, keeping established determinism
// contracts intact.

// pendingMutation records one table mutation that some nodes missed
// because they were crashed or unreachable when it happened. A node in no
// absent set needs zero repair on rejoin — its local storage survived the
// process crash and is still current.
type pendingMutation struct {
	at     float64
	table  string
	absent []int // nodes that missed the mutation, ascending
}

// RepairRecord is one executed node repair, kept for accounting audits:
// the chaos harness checks that the sum of Bytes over the log equals the
// engine's RepairedBytes counter.
type RepairRecord struct {
	// At is the simulated time of the rejoin/heal event that triggered the
	// repair (the repair's network charge is priced at this instant).
	At   float64
	Node int
	// Tables counts repaired tables; Cached how many of those were served
	// as shard-LRU (or replica-alias) registrations instead of re-splits.
	Tables int
	Cached int
	// Bytes shipped to the node and the simulated seconds charged.
	Bytes   int64
	Seconds float64
}

// SetSelfHeal arms (or disarms) the self-healing layer. Arming starts the
// mutation watch at the current simulated clock; disarming drops any
// pending catch-up state.
func (e *Engine) SetSelfHeal(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishLocked()
	e.selfHeal = on
	e.lastHeal = e.simNow
	e.pending = nil
}

// RepairStats returns a coherent snapshot of the repair accounting,
// lock-free from the published view.
func (e *Engine) RepairStats() (repairs int, bytes int64) {
	v := e.loadView()
	return v.repairs, v.repairedBytes
}

// RepairLog returns a copy of the executed-repair log, lock-free from the
// published view (the log is append-only, so the published slice prefix is
// immutable).
func (e *Engine) RepairLog() []RepairRecord {
	log := e.loadView().repairLog
	out := make([]RepairRecord, len(log))
	copy(out, log)
	return out
}

// NodeStates reports per-node crash and partition-unreachability at the
// published simulated clock (all false with no injector armed). Chaos
// invariant checks cross-reference these against query outcomes. Lock-free.
func (e *Engine) NodeStates() (down, unreachable []bool) {
	v := e.loadView()
	down = make([]bool, e.HW.Nodes)
	unreachable = make([]bool, e.HW.Nodes)
	if v.faults != nil {
		nodeStateAt(v.faults, e.HW.Nodes, v.now, down, unreachable)
	}
	return down, unreachable
}

// healLocked processes topology-recovery events (node rejoins, partition
// heals) that occurred since the last check, repairing every node that has
// missed mutations and is accessible at the event time. Called at the top
// of the stateful entry points (Exec, Deploy, BulkLoad) under
// the engine mutex — healing is lazy: a rejoin is acted on the next time
// the engine does work, in event order. No-op unless self-healing is
// armed.
func (e *Engine) healLocked() {
	if !e.selfHeal || e.faults == nil || e.simNow <= e.lastHeal {
		return
	}
	evs := e.faults.Events(e.lastHeal, e.simNow)
	e.lastHeal = e.simNow
	for _, ev := range evs {
		if ev.Kind != faults.EventRejoin && ev.Kind != faults.EventPartitionHeal {
			continue
		}
		if len(e.pending) == 0 {
			break // recovery events cannot create catch-up work
		}
		e.repairAccessibleLocked(ev.At)
	}
}

// repairAccessibleLocked repairs every node that has pending missed
// mutations and is accessible (up and reachable) at simulated time at.
// Nodes are visited in ascending order and plans are deterministic, so a
// fixed schedule always yields the identical repair sequence.
func (e *Engine) repairAccessibleLocked(at float64) {
	down := make([]bool, e.HW.Nodes)
	unreach := make([]bool, e.HW.Nodes)
	e.nodeStateLocked(at, down, unreach)
	for node := 0; node < e.HW.Nodes; node++ {
		if down[node] || unreach[node] {
			continue
		}
		var stale []string
		for _, m := range e.pending {
			if containsNode(m.absent, node) {
				stale = append(stale, m.table)
			}
		}
		if len(stale) == 0 {
			continue
		}
		plan := e.cluster.PlanRepair(node, stale)
		if len(plan.Actions) > 0 {
			bytes := e.cluster.ExecuteRepair(plan)
			// The rejoining node's ingest link is the bottleneck: unlike an
			// all-nodes-parallel deploy, repair bytes flow to one node.
			net := e.HW.NetBytesPerSec * e.faults.NetFactor(at)
			seconds := float64(bytes)/net + float64(len(plan.Actions))*e.HW.RepartitionOverheadSec
			e.Repairs++
			e.RepairedBytes += bytes
			e.BytesMoved += bytes
			e.simNow += seconds
			e.repairLog = append(e.repairLog, RepairRecord{
				At:      at,
				Node:    node,
				Tables:  len(plan.Actions),
				Cached:  plan.CachedActions(),
				Bytes:   bytes,
				Seconds: seconds,
			})
		}
		// The node is caught up (zero-action plans are metadata-only):
		// drop it from every absent set and drain fully-served mutations.
		e.pending = dropNode(e.pending, node)
	}
}

// recordMutationLocked notes that a table just mutated while some nodes
// were crashed or unreachable — those nodes will need catch-up when they
// return. No-op unless self-healing is armed, and when every node saw the
// mutation. The caller must hold e.mu.
func (e *Engine) recordMutationLocked(table string) {
	if !e.selfHeal || e.faults == nil {
		return
	}
	down := make([]bool, e.HW.Nodes)
	unreach := make([]bool, e.HW.Nodes)
	e.nodeStateLocked(e.simNow, down, unreach)
	var absent []int
	for i := 0; i < e.HW.Nodes; i++ {
		if down[i] || unreach[i] {
			absent = append(absent, i)
		}
	}
	if len(absent) == 0 {
		return
	}
	e.pending = append(e.pending, pendingMutation{at: e.simNow, table: table, absent: absent})
}

// containsNode reports whether the ascending node list holds node.
func containsNode(nodes []int, node int) bool {
	for _, n := range nodes {
		if n == node {
			return true
		}
	}
	return false
}

// dropNode removes node from every mutation's absent set, discarding
// mutations every node has now seen.
func dropNode(pending []pendingMutation, node int) []pendingMutation {
	out := pending[:0]
	for _, m := range pending {
		kept := m.absent[:0]
		for _, n := range m.absent {
			if n != node {
				kept = append(kept, n)
			}
		}
		if len(kept) > 0 {
			m.absent = kept
			out = append(out, m)
		}
	}
	return out
}
