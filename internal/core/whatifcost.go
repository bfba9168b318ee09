package core

import (
	"context"

	"partadvisor/internal/exec"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

// WhatIfCost prices partitionings by simulated execution WITHOUT deploying
// them: each evaluation runs the mix's active queries against a frozen
// overlay of the engine's layout with the candidate design's shard sets
// materialized through the cluster's shard cache (exec.Request.Design).
// Nothing observable on the engine moves — no deploys, no clock advance, no
// counters, no fault draws — so unlike OnlineCost it is safe to call from
// many goroutines at once: evaluations are pure and run lock-free against
// their own snapshots.
//
// That makes WorkloadCost the natural concurrent base for an env.CostCache
// feeding the training prefetcher: wrap it, call
// cache.SetConcurrentBase(true), and speculative designs are priced on
// prefetch workers while the decision loop trains the network.
type WhatIfCost struct {
	Engine *exec.Engine
	WL     *workload.Workload
	// Workers bounds the per-evaluation batch parallelism (<= 0 uses
	// GOMAXPROCS; 1 runs the batch inline). When many evaluations already
	// run concurrently — the prefetch-worker setup — set 1 so parallelism
	// comes from the evaluations, not from nested fan-out.
	Workers int
}

// WorkloadCost returns Σ_j f_j·w_j·seconds(P, q_j) over the mix's active
// queries, measured on the what-if snapshot. It implements env.CostFunc and
// is deterministic: a pure function of (layout revision, catalog, design,
// mix), bit-identical at every worker count.
func (wc *WhatIfCost) WorkloadCost(st *partition.State, freq workload.FreqVector) float64 {
	var qs []exec.BatchQuery
	var weights []float64
	for i, q := range wc.WL.Queries {
		if i >= len(freq) || freq[i] == 0 {
			continue
		}
		qs = append(qs, exec.BatchQuery{Graph: q.Graph})
		weights = append(weights, freq[i]*q.Weight)
	}
	rep := wc.Engine.Exec(context.Background(), exec.Request{Queries: qs, Workers: wc.Workers, Design: st})
	total := 0.0
	for pos, w := range weights {
		total += w * rep.Reports[pos].Seconds
	}
	return total
}
