package experiments

import (
	"fmt"

	"partadvisor/advisor"
	"partadvisor/internal/dqn"
)

// table1 renders the hyperparameter table (paper Table 1) from the live
// default configuration, so drift between code and documentation is
// impossible.
func table1() *Result {
	hp := PaperConfig().HP(true)
	r := &Result{
		Title:  "Hyperparameters used for DRL training (paper Table 1)",
		Header: []string{"Parameter", "Value"},
	}
	r.AddRow("Learning Rate", fmt.Sprintf("%g", hp.DQN.LearningRate))
	r.AddRow("tau (Target network update)", fmt.Sprintf("%g", dqn.Tau))
	r.AddRow("Optimizer", "Adam")
	r.AddRow("Experience Replay Buffer Size", hp.DQN.BufferSize)
	r.AddRow("Batch Size for Experience Replay", dqn.BatchSize)
	r.AddRow("Epsilon Decay", fmt.Sprintf("%g", hp.DQN.EpsilonDecay))
	r.AddRow("tmax (Max Stepsize)", hp.Tmax)
	r.AddRow("Episodes", fmt.Sprintf("%d/%d", PaperConfig().HP(false).Episodes, hp.Episodes))
	r.AddRow("Network Layout", fmt.Sprintf("%d-%d", hp.DQN.Hidden[0], hp.DQN.Hidden[1]))
	r.AddRow("gamma (Reward Discount)", fmt.Sprintf("%g", dqn.Gamma))
	return r
}

// fig3 reproduces one subfigure of Exp. 1 (offline training): workload
// runtime of the partitionings found by Heuristic (a), Heuristic (b), the
// Minimum-Optimizer baseline (Disk engines only) and the offline-trained
// DRL agent, for one benchmark (SSB / TPC-DS / TPC-CH) on one engine
// flavor.
func fig3(bench func() *advisor.Benchmark, hw advisor.HardwareProfile) func(Config) (*Result, error) {
	return func(cfg Config) (*Result, error) {
		d := advisor.NewDeployment(bench(), hw, cfg.Scale, cfg.Seed)
		res := &Result{
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
}
