package experiments

import (
	"fmt"

	"partadvisor/advisor"
	"partadvisor/internal/partition"
)

// microDesign builds the fixed Fig-8 candidates: table a is always
// co-partitioned with c (c is too large to move); b is either hash-
// partitioned by its primary key or replicated.
func microDesign(sp *partition.Space, replicateB bool) *partition.State {
	st := sp.InitialState()
	aIdx := sp.TableIndex("a")
	ki := sp.Tables[aIdx].KeyIndex(partition.Key{"a_c"})
	st = sp.Apply(st, partition.Action{Kind: partition.ActPartition, Table: aIdx, Key: ki})
	if replicateB {
		st = sp.Apply(st, partition.Action{Kind: partition.ActReplicate, Table: sp.TableIndex("b")})
	}
	return st
}

// fig8Deployment evaluates one hardware deployment: the two fixed designs
// plus an online-trained DRL agent (retrained per deployment, as in the
// paper), reporting each approach's speedup over the slowest.
func fig8Deployment(cfg Config, hw advisor.HardwareProfile, seed int64) (replB, partB, rl float64, rlState *partition.State, err error) {
	d := advisor.NewDeployment(advisor.Micro(), hw, cfg.Scale, cfg.Seed)

	tRepl := d.MeasureWorkload(microDesign(d.Space, true))
	tPart := d.MeasureWorkload(microDesign(d.Space, false))

	s, err := trainOffline(cfg, d, seed)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	oc, err := s.PrepareOnline(sampleOf(cfg, d))
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if err := s.RefineOnline(oc); err != nil {
		return 0, 0, 0, nil, err
	}
	st, _, err := s.Advisor.SuggestBest(d.Bench.Workload.UniformFreq(), oc)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	tRL := d.MeasureWorkload(st)

	slowest := tRepl
	if tPart > slowest {
		slowest = tPart
	}
	if tRL > slowest {
		slowest = tRL
	}
	return slowest / tRepl, slowest / tPart, slowest / tRL, st, nil
}

// fig8 reproduces Exp. 5 (adaptivity to deployments) on the in-memory
// engine: whether to replicate or partition table b flips with the
// interconnect bandwidth (10 Gbps vs 0.6 Gbps), and the retrained DRL agent
// must pick the per-deployment optimum. slowCompute selects Fig. 8b's less
// powerful nodes.
func fig8(slowCompute bool) func(Config) (*Result, error) {
	return func(cfg Config) (*Result, error) {
		title := "Adaptivity to deployment — standard hardware (speedup over slowest, higher is better)"
		base := advisor.MemoryCluster()
		if slowCompute {
			title = "Adaptivity to deployment — slower compute (speedup over slowest, higher is better)"
			base = base.WithSlowCompute()
		}
		res := &Result{
			Title:  title,
			Header: []string{"Deployment", "B replicated", "B partitioned", "RL online"},
		}
		for i, hw := range []advisor.HardwareProfile{base, base.WithSlowNetwork()} {
			label := "10 Gbps"
			if i == 1 {
				label = "0.6 Gbps"
			}
			replB, partB, rl, st, err := fig8Deployment(cfg, hw, cfg.Seed+61+int64(i))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", label, err)
			}
			res.AddRow(label, fmt.Sprintf("%.2fx", replB), fmt.Sprintf("%.2fx", partB), fmt.Sprintf("%.2fx", rl))
			res.Notef("%s: RL chose %s", label, st)
		}
		return res, nil
	}
}
