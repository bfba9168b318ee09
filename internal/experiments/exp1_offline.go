package experiments

import (
	"fmt"

	"partadvisor/advisor"
)

// Table1 renders the hyperparameter table (paper Table 1) from the live
// default configuration, so drift between code and documentation is
// impossible.
func Table1() *Result {
	hp := PaperConfig().HP(true)
	r := &Result{
		ID:     "table1",
		Title:  "Hyperparameters used for DRL training (paper Table 1)",
		Header: []string{"Parameter", "Value"},
	}
	r.AddRow("Learning Rate", fmt.Sprintf("%g", hp.DQN.LearningRate))
	r.AddRow("tau (Target network update)", fmt.Sprintf("%g", hp.DQN.Tau))
	r.AddRow("Optimizer", "Adam")
	r.AddRow("Experience Replay Buffer Size", hp.DQN.BufferSize)
	r.AddRow("Batch Size for Experience Replay", hp.DQN.BatchSize)
	r.AddRow("Epsilon Decay", fmt.Sprintf("%g", hp.DQN.EpsilonDecay))
	r.AddRow("tmax (Max Stepsize)", hp.Tmax)
	r.AddRow("Episodes", fmt.Sprintf("%d/%d", PaperConfig().HP(false).Episodes, hp.Episodes))
	r.AddRow("Network Layout", fmt.Sprintf("%d-%d", hp.DQN.Hidden[0], hp.DQN.Hidden[1]))
	r.AddRow("gamma (Reward Discount)", fmt.Sprintf("%g", hp.DQN.Gamma))
	return r
}

// fig3Case identifies one subfigure of Fig. 3.
type fig3Case struct {
	id    string
	bench func() *advisor.Benchmark
	hw    advisor.HardwareProfile
}

func fig3Cases() []fig3Case {
	return []fig3Case{
		{"fig3a", advisor.SSB, advisor.DiskCluster()},
		{"fig3b", advisor.SSB, advisor.MemoryCluster()},
		{"fig3c", advisor.TPCDS, advisor.DiskCluster()},
		{"fig3d", advisor.TPCDS, advisor.MemoryCluster()},
		{"fig3e", advisor.TPCCH, advisor.DiskCluster()},
		{"fig3f", advisor.TPCCH, advisor.MemoryCluster()},
	}
}

// Fig3 reproduces Exp. 1 (offline training): workload runtime of the
// partitionings found by Heuristic (a), Heuristic (b), the
// Minimum-Optimizer baseline (Disk engines only) and the offline-trained
// DRL agent, for SSB / TPC-DS / TPC-CH on both engine flavors.
func Fig3(cfg Config, only string) ([]*Result, error) {
	var out []*Result
	for _, c := range fig3Cases() {
		if only != "" && only != c.id {
			continue
		}
		res, err := runFig3Case(cfg, c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.id, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func runFig3Case(cfg Config, c fig3Case) (*Result, error) {
	d := advisor.NewDeployment(c.bench(), c.hw, cfg.Scale, cfg.Seed)
	res := &Result{
		ID:     c.id,
		Title:  fmt.Sprintf("Offline RL vs baselines — %s (%s)", d.Bench.Name, d.Engine.Flavor),
		Header: []string{"Approach", "Workload runtime (sim s)"},
	}

	ha, hb := heuristics(d)
	res.AddRow("Heuristic (a)", d.MeasureWorkload(ha))
	res.AddRow("Heuristic (b)", d.MeasureWorkload(hb))

	if mo := minOptimizer(d); mo != nil {
		res.AddRow("Minimum Optimizer", d.MeasureWorkload(mo))
		res.Notef("minimum-optimizer partitioning: %s", mo)
	} else {
		res.AddRow("Minimum Optimizer", "not available")
	}

	s, err := trainOffline(cfg, d, cfg.Seed+17)
	if err != nil {
		return nil, err
	}
	st, err := s.Suggest(nil)
	if err != nil {
		return nil, err
	}
	res.AddRow("RL", d.MeasureWorkload(st))
	res.Notef("RL partitioning: %s", st)
	return res, nil
}
