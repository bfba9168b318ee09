package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"partadvisor/advisor"
	"partadvisor/internal/core"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

// suggester produces a partitioning for a workload mix. Fixed baselines
// ignore the mix.
type suggester struct {
	name string
	fn   func(freq workload.FreqVector) (*partition.State, error)
}

func fixedSuggester(name string, st *partition.State) suggester {
	return suggester{name: name, fn: func(workload.FreqVector) (*partition.State, error) { return st, nil }}
}

// accuracyTolerance: an approach "found the optimal partitioning" when its
// suggestion is within 2% of the best candidate's measured cost.
const accuracyTolerance = 1.02

// measureAccuracy samples mixes from the cluster sampler and scores each
// approach: the fraction of mixes where its suggestion matches the best
// measured cost among all approaches' suggestions (the paper's Fig. 5
// metric). cost must be a cached measured cost so this stays cheap.
func measureAccuracy(cost func(*partition.State, workload.FreqVector) float64,
	approaches []suggester, sampler func(*rand.Rand) workload.FreqVector,
	mixes int, rng *rand.Rand) (map[string]float64, error) {

	wins := make(map[string]int, len(approaches))
	for m := 0; m < mixes; m++ {
		freq := sampler(rng)
		costs := make([]float64, len(approaches))
		best := 0.0
		for i, ap := range approaches {
			st, err := ap.fn(freq)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", ap.name, err)
			}
			costs[i] = cost(st, freq)
			if i == 0 || costs[i] < best {
				best = costs[i]
			}
		}
		for i, ap := range approaches {
			if costs[i] <= best*accuracyTolerance {
				wins[ap.name]++
			}
		}
	}
	out := make(map[string]float64, len(approaches))
	for _, ap := range approaches {
		out[ap.name] = float64(wins[ap.name]) / float64(mixes)
	}
	return out, nil
}

// clusterSamplers returns the paper's workload clusters for TPC-CH:
// A samples frequencies uniformly; B boosts queries joining Stock and Item.
func clusterSamplers(wl *workload.Workload) (a, b func(*rand.Rand) workload.FreqVector) {
	a = func(rng *rand.Rand) workload.FreqVector { return wl.SampleUniform(rng) }
	b = func(rng *rand.Rand) workload.FreqVector {
		return wl.SampleBiased(rng, []string{"stock", "item"}, 6)
	}
	return a, b
}

// stockItemPartitioning builds Fig. 5's Heuristic (b): Stock and Item
// co-partitioned, small tables replicated.
func stockItemPartitioning(sp *partition.Space) *partition.State {
	st := sp.InitialState()
	for ei, e := range sp.Edges {
		if (e.Table1 == "item" && e.Table2 == "stock") || (e.Table1 == "stock" && e.Table2 == "item") {
			a := partition.Action{Kind: partition.ActActivateEdge, Edge: ei}
			if sp.Valid(st, a) {
				st = sp.Apply(st, a)
			}
		}
	}
	for _, name := range []string{"region", "nation", "warehouse", "district", "supplier"} {
		ti := sp.TableIndex(name)
		if ti < 0 {
			continue
		}
		a := partition.Action{Kind: partition.ActReplicate, Table: ti}
		if sp.Valid(st, a) {
			st = sp.Apply(st, a)
		}
	}
	return st
}

// accuracyTable scores the naive RL agent, the committee of subspace
// experts and the given other approaches on workload clusters A and B
// (Fig. 5, Fig. 7b): the fraction of sampled mixes for which each finds
// the best measured partitioning. seed seeds the mix sampler.
func accuracyTable(sh *shared, title string, seed int64, others ...suggester) (*Result, error) {
	run, err := sh.onlineRun()
	if err != nil {
		return nil, err
	}
	committee, err := sh.committee()
	if err != nil {
		return nil, err
	}
	approaches := append([]suggester{
		{name: "RL Naive", fn: func(f workload.FreqVector) (*partition.State, error) {
			return run.Suggest(f)
		}},
		{name: "RL Subspace Experts", fn: func(f workload.FreqVector) (*partition.State, error) {
			st, _, err := committee.Suggest(f)
			return st, err
		}},
	}, others...)
	samplerA, samplerB := clusterSamplers(run.Bench.Workload)
	rng := rand.New(rand.NewSource(seed))
	accA, err := measureAccuracy(run.onlineCost.WorkloadCost, approaches, samplerA, sh.cfg.Mixes, rng)
	if err != nil {
		return nil, err
	}
	accB, err := measureAccuracy(run.onlineCost.WorkloadCost, approaches, samplerB, sh.cfg.Mixes, rng)
	if err != nil {
		return nil, err
	}
	res := &Result{Title: title, Header: []string{"Approach", "Workload A", "Workload B"}}
	for _, ap := range approaches {
		res.AddRow(ap.name, pct(accA[ap.name]), pct(accB[ap.name]))
	}
	return res, nil
}

// fig5 reproduces Exp. 3b: accuracy on clusters A and B of the naive RL
// agent, the committee of subspace experts, and two fixed heuristics (the
// online-phase optimum and the Stock–Item co-partitioning).
func fig5(sh *shared) (*Result, error) {
	run, err := sh.onlineRun()
	if err != nil {
		return nil, err
	}
	committee, err := sh.committee()
	if err != nil {
		return nil, err
	}
	res, err := accuracyTable(sh, "Best partitioning found for varying workloads (accuracy, higher is better)",
		sh.cfg.Seed+43,
		fixedSuggester("Heuristic (a)", run.onlineSt),
		fixedSuggester("Heuristic (b)", stockItemPartitioning(run.Space)))
	if err != nil {
		return nil, err
	}
	res.Notef("committee: %d reference partitionings / experts", len(committee.Refs))
	return res, nil
}

func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }

// fig6 reproduces Exp. 3c: the time of incremental training (adding back k
// randomly removed queries, for each k in ks) relative to full retraining,
// with 25%/75% quantiles over repeats.
func fig6(cfg Config, ks []int, repeats int) (*Result, error) {
	res := &Result{
		Title:  "Incremental training time relative to full retraining (TPC-CH)",
		Header: []string{"Additional queries", "median", "p25", "p75"},
	}
	for _, k := range ks {
		var ratios []float64
		for rep := 0; rep < repeats; rep++ {
			ratio, err := incrementalRatio(cfg, k, cfg.Seed+int64(97*k+rep))
			if err != nil {
				return nil, err
			}
			ratios = append(ratios, ratio)
		}
		sort.Float64s(ratios)
		res.AddRow(k, pct(quantile(ratios, 0.5)), pct(quantile(ratios, 0.25)), pct(quantile(ratios, 0.75)))
	}
	return res, nil
}

// incrementalRatio runs one Fig. 6 trial: full training cost vs training on
// a reduced workload plus incremental training of the k removed queries.
// Time is the §4.2-accounted online simulated time (executions +
// repartitioning) plus the per-step training overhead, proxied by steps.
func incrementalRatio(cfg Config, k int, seed int64) (float64, error) {
	d := advisor.NewDeployment(advisor.TPCCH(), advisor.DiskCluster(), cfg.Scale, cfg.Seed)
	wl := d.Bench.Workload
	rng := rand.New(rand.NewSource(seed))

	// Full run.
	full, err := trainOffline(cfg, d, seed)
	if err != nil {
		return 0, err
	}
	ocFull := core.NewOnlineCost(sampleOf(cfg, d), wl, nil)
	if err := full.Advisor.TrainOnline(ocFull, nil); err != nil {
		return 0, err
	}
	tFull := ocFull.Stats.TotalSeconds()

	// Reduced workload: remove k random queries.
	names := make([]string, len(wl.Queries))
	for i, q := range wl.Queries {
		names[i] = q.Name
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	if k >= len(names) {
		k = len(names) - 1
	}
	kept, removed := names[k:], names[:k]
	sort.Strings(kept)
	sub, err := wl.Subset(kept)
	if err != nil {
		return 0, err
	}
	hp := cfg.HP(d.Bench.ComplexSchema())
	inc, err := core.New(d.Space, sub, hp, seed+1)
	if err != nil {
		return 0, err
	}
	// The reduced workload needs its own offline cost: the deployment's is
	// bound to the full one.
	subCost := func(st *partition.State, freq workload.FreqVector) float64 {
		return d.Cost.WorkloadCost(st, sub, freq)
	}
	if err := inc.TrainOffline(subCost, nil); err != nil {
		return 0, err
	}
	ocSub := core.NewOnlineCost(sampleOf(cfg, d), sub, nil)
	if err := inc.TrainOnline(ocSub, nil); err != nil {
		return 0, err
	}
	// Incremental phase: add the removed queries back.
	var newQs []*workload.Query
	for _, n := range removed {
		newQs = append(newQs, wl.Query(n))
	}
	incEpisodes := hp.OnlineEpisodes/2 + k
	r, err := inc.TrainIncremental(newQs, ocSub.WorkloadCost, ocSub, incEpisodes)
	if err != nil {
		return 0, err
	}
	tIncr := r.ExecSeconds + r.RepartitionSeconds
	if tFull <= 0 {
		return 1, nil
	}
	return tIncr / tFull, nil
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
