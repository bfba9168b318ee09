package experiments

import (
	"fmt"
	"time"

	"partadvisor/advisor"
	"partadvisor/internal/core"
	"partadvisor/internal/partition"
)

// ablations compares the design choices DESIGN.md calls out, on the
// microbenchmark (where ground truth is well understood):
//
//   - multi-head Q(s) -> R^|A| vs the paper-faithful scalar Q(s,a) head,
//   - co-partitioning edge actions on vs off,
//   - vanilla DQN vs Double-DQN targets.
//
// Each variant trains offline with identical budgets; the table reports the
// measured workload runtime of the suggested design (quality) and the wall
// time spent training (cost).
func ablations(cfg Config) (*Result, error) {
	d := advisor.NewDeployment(advisor.Micro(), advisor.MemoryCluster(), cfg.Scale, cfg.Seed)
	b := d.Bench

	type variant struct {
		name         string
		head         core.QHead
		disableEdges bool
		double       bool
	}
	variants := []variant{
		{name: "baseline (multi-head, edges, vanilla DQN)"},
		{name: "scalar Q(s,a) head (paper-faithful)", head: core.ScalarHead},
		{name: "edge actions disabled", disableEdges: true},
		{name: "Double-DQN targets", double: true},
	}

	res := &Result{
		Title:  "Design-choice ablations (microbenchmark, offline training)",
		Header: []string{"Variant", "Workload runtime (sim s)", "Training wall time", "Steps"},
	}
	for vi, v := range variants {
		sp := d.Space
		if v.disableEdges {
			sp = partition.NewSpace(b.Schema,
				b.Workload.JoinEdges(b.Schema.ForeignKeyEdges()),
				partition.Options{DisableEdges: true})
		}
		hp := cfg.HP(false)
		hp.Head = v.head
		hp.DQN.Double = v.double
		adv, err := core.New(sp, b.Workload, hp, cfg.Seed+71+int64(vi))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := adv.TrainOffline(d.OfflineCost(), nil); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		st, _, err := adv.Suggest(b.Workload.UniformFreq())
		if err != nil {
			return nil, err
		}
		res.AddRow(v.name, d.MeasureWorkload(st), elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", adv.StepsTrained))
		res.Notef("%s: %s", v.name, st)
	}
	return res, nil
}
