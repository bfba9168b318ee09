package core

import (
	"fmt"

	"partadvisor/internal/exec"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

// This file closes the loop between the engine's per-shard heat counters and
// the mitigation actions of the partitioning space: a sliding-window detector
// flags tables whose recent access heat concentrates on one shard, a proposer
// enumerates the guard-validated mitigation successors (hot-key split, key
// salting), and a forecaster hook runs the repartitioning cost–benefit
// analysis against the predicted mix so the advisor can move ahead of a
// flash crowd instead of behind it.

// The detector's settings.
const (
	// hotThreshold is the max/mean heat ratio over one observation window
	// above which a table counts as hot (1 means perfectly balanced).
	hotThreshold = 2
	// hotPatience is how many consecutive hot windows trigger a report
	// (one bursty window is not a regime).
	hotPatience = 2
	// hotMinRows is the noise floor: windows in which a table accumulated
	// fewer delta rows are ignored entirely.
	hotMinRows = 1
)

// HotReport describes a detected hot shard.
type HotReport struct {
	// Table is the hot table; Node the shard carrying the most heat.
	Table string
	Node  int
	// Imbalance is the max/mean heat ratio of the triggering window.
	Imbalance float64
	// Windows is how many consecutive windows the table stayed hot.
	Windows int
}

func (r HotReport) String() string {
	return fmt.Sprintf("hot shard: table %s node %d imbalance %.2f over %d windows",
		r.Table, r.Node, r.Imbalance, r.Windows)
}

// HotShardDetector watches the engine's cumulative ShardHeat through a
// sliding window of deltas: each Observe call diffs against the previous
// snapshot, so a table is judged by its *recent* access skew, not by heat
// accumulated under long-replaced layouts. Deterministic: state is a pure
// function of the observation sequence.
type HotShardDetector struct {
	prev   exec.ShardHeat
	streak map[string]int
}

// NewHotShardDetector builds a detector.
func NewHotShardDetector() *HotShardDetector {
	return &HotShardDetector{streak: make(map[string]int)}
}

// Observe feeds one cumulative heat snapshot and reports the hottest table
// whose streak just reached the patience threshold. Tables are scanned in
// the snapshot's (schema) order and the report picks the highest triggering
// imbalance, ties to the earlier table — fully deterministic. A reported
// table's streak resets so mitigation gets hotPatience windows to take effect
// before the detector re-alarms.
func (d *HotShardDetector) Observe(h exec.ShardHeat) (HotReport, bool) {
	delta := h.Sub(d.prev)
	d.prev = h

	best := HotReport{Imbalance: -1}
	found := false
	for _, table := range delta.Tables {
		var rows int64
		for _, v := range delta.TableRows(table) {
			rows += v
		}
		if rows < hotMinRows {
			// Too quiet to judge: the streak neither grows nor resets — a
			// celebrity key is still a celebrity during a lull.
			continue
		}
		im := delta.Imbalance(table)
		if im < hotThreshold {
			d.streak[table] = 0
			continue
		}
		d.streak[table]++
		if d.streak[table] >= hotPatience && im > best.Imbalance {
			node, hottest := 0, int64(-1)
			for n, v := range delta.TableRows(table) {
				if v > hottest {
					node, hottest = n, v
				}
			}
			best = HotReport{Table: table, Node: node, Imbalance: im, Windows: d.streak[table]}
			found = true
		}
	}
	if found {
		d.streak[best.Table] = 0
	}
	return best, found
}

// MitigationPlan pairs a mitigation action with its successor state.
type MitigationPlan struct {
	Action partition.Action
	State  *partition.State
}

// ProposeMitigations enumerates the valid mitigation successors for the hot
// table, strongest first: hot-key split (isolates a single celebrity value)
// before key salting (spreads every value). Empty when the space was built
// without Options.EnableMitigations, when the table is replicated (already
// balanced by construction), or when both mitigations are applied.
func ProposeMitigations(sp *partition.Space, st *partition.State, table string) []MitigationPlan {
	ti := sp.TableIndex(table)
	if ti < 0 || !sp.Mitigations() {
		return nil
	}
	var out []MitigationPlan
	for _, kind := range []partition.ActionKind{partition.ActHotSplit, partition.ActSaltKey} {
		a := partition.Action{Kind: kind, Table: ti}
		if sp.Valid(st, a) {
			out = append(out, MitigationPlan{Action: a, State: sp.Apply(st, a)})
		}
	}
	return out
}

// MitigateHotShard runs the guarded mitigation step of the online loop: it
// measures each proposed mitigation for the hot table through the same
// OnlineCost path the agent trains against (guard validation, canary,
// budget, rollback all apply) and keeps the cheapest candidate that beats
// the current design's measured cost. The winning layout is redeployed
// before returning, so the engine never stays parked on a losing candidate.
// Returns the adopted state and its cost, or (current, currentCost, false)
// when no mitigation improves.
func MitigateHotShard(oc *OnlineCost, current *partition.State, freq workload.FreqVector, table string) (*partition.State, float64, bool) {
	currentCost := oc.WorkloadCost(current, freq)
	best, bestCost, improved := current, currentCost, false
	for _, plan := range ProposeMitigations(current.Space(), current, table) {
		if oc.vetoed(plan.State) {
			continue
		}
		if c := oc.WorkloadCost(plan.State, freq); c < bestCost {
			best, bestCost, improved = plan.State, c, true
		}
	}
	oc.Stats.RepartitionSeconds += oc.Engine.Deploy(best, nil)
	return best, bestCost, improved
}
