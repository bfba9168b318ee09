package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"partadvisor/advisor"
	"partadvisor/internal/benchmarks"
	"partadvisor/internal/core"
	"partadvisor/internal/exec"
	"partadvisor/internal/partition"
)

// hotshard is the hot-shard resilience experiment: the celebrity benchmark's
// seeded Zipf + flash-crowd trace replayed window by window against three
// layout policies. A static hash on the customer FK has perfect join
// locality but melts one shard under the celebrity's feed traffic; a static
// hash on the order primary key is the hindsight-optimal static layout (the
// scan is balanced from the start, at the price of repartitioning joins);
// the mitigating agent starts from the melting FK layout and must contain
// the damage with the hot-shard detector plus the key-salting / hot-key
// split mitigation actions.
func hotshard(cfg Config) (*Result, error) {
	res := &Result{
		Title:  "Hot-shard resilience under a celebrity flash crowd",
		Header: []string{"policy", "mean window (s)", "p95 window (s)", "final heat imbalance", "mitigations", "final layout"},
	}
	type variant struct {
		name     string
		key      string
		mitigate bool
	}
	variants := []variant{
		{"static hash FK (locality)", "o_c_id", false},
		{"static hash PK (hindsight)", "o_id", false},
		{"mitigating agent (starts FK)", "o_c_id", true},
	}
	var fkP95, agentP95 float64
	for _, v := range variants {
		costs, finalIm, mitigations, layout, err := runHotshardVariant(cfg, v.key, v.mitigate)
		if err != nil {
			return nil, fmt.Errorf("hotshard %s: %w", v.name, err)
		}
		mean, p95 := summarize(costs)
		switch v.name {
		case "static hash FK (locality)":
			fkP95 = p95
		case "mitigating agent (starts FK)":
			agentP95 = p95
		}
		res.AddRow(v.name, mean, p95, finalIm, mitigations, layout)
	}
	res.Notef("trace: %d windows of seeded Zipf keys with a mid-trace flash-crowd ramp (seed %d)",
		benchmarks.CelebrityWindows, cfg.Seed)
	res.Notef("window cost is the trace-mix-weighted runtime of the window's queries")
	res.Notef("the PK hash is a hindsight baseline: it needs to know the skew before deployment; " +
		"the agent starts from the melting FK layout and recovers online")
	if agentP95 < fkP95 {
		res.Notef("containment: the agent's p95 window beats the static FK layout's by %.1fx", fkP95/agentP95)
	}
	return res, nil
}

// runHotshardVariant replays the celebrity trace against one layout policy
// and returns the per-window mix-weighted costs, the final measurement
// window's heat imbalance for orders, the adopted mitigation count and the
// final layout signature.
func runHotshardVariant(cfg Config, key string, mitigate bool) (costs []float64, finalIm float64, mitigations int, layout string, err error) {
	b := benchmarks.Celebrity()
	if !mitigate {
		// Static layouts don't need the enlarged action space; the plain
		// space keeps the variant honest (no mitigation actions exist).
		b.SpaceOptions = partition.Options{}
	}
	d := advisor.NewDeployment(b, advisor.DiskCluster(), cfg.Scale, cfg.Seed)
	sp, e, wl := d.Space, d.Engine, b.Workload
	tr := benchmarks.CelebrityTrace(cfg.Seed, benchmarks.CelebrityWindows)

	st := sp.InitialState()
	oi := sp.TableIndex("orders")
	ki := sp.Tables[oi].KeyIndex(partition.Key{key})
	if ki < 0 {
		return nil, 0, 0, "", fmt.Errorf("%s is not a candidate key of orders", key)
	}
	act := partition.Action{Kind: partition.ActPartition, Table: oi, Key: ki}
	if sp.Valid(st, act) {
		st = sp.Apply(st, act)
	}
	e.Deploy(st, nil)
	e.ResetClock()
	window := exec.Request{Queries: exec.Queries(wl.Graphs(), 0)}

	oc := core.NewOnlineCost(e, wl, nil)
	det := core.NewHotShardDetector(core.HotShardConfig{})
	size := len(wl.UniformFreq())
	for w := 0; w < benchmarks.CelebrityWindows; w++ {
		freq := tr.Mix(w, size)
		zero := true
		for _, v := range freq {
			if v != 0 {
				zero = false
				break
			}
		}
		if zero {
			freq = wl.UniformFreq()
		}
		rep := e.Exec(context.Background(), window)
		var cost float64
		for i := range window.Queries {
			cost += freq[i] * rep.Reports[i].Seconds
		}
		costs = append(costs, cost)
		if !mitigate {
			continue
		}
		hs, hot := det.Observe(e.ShardHeat())
		if !hot {
			continue
		}
		if next, _, improved := core.MitigateHotShard(oc, st, freq, hs.Table); improved {
			st = next
			mitigations++
		}
	}

	pre := e.ShardHeat()
	if err := e.Exec(context.Background(), exec.Request{Queries: window.Queries[:1]}).Errs[0]; err != nil {
		return nil, 0, 0, "", fmt.Errorf("final probe: %w", err)
	}
	finalIm = e.ShardHeat().Sub(pre).Imbalance("orders")
	return costs, finalIm, mitigations, st.Signature(), nil
}

// summarize returns the mean and p95 of a window-cost series.
func summarize(costs []float64) (mean, p95 float64) {
	if len(costs) == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), costs...)
	sort.Float64s(sorted)
	var sum float64
	for _, c := range sorted {
		sum += c
	}
	idx := int(math.Ceil(0.95*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sum / float64(len(sorted)), sorted[idx]
}
