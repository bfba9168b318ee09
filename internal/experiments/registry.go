package experiments

import (
	"fmt"
	"sort"

	"partadvisor/advisor"
	"partadvisor/internal/baselines"
	"partadvisor/internal/core"
)

// entry is one experiment: its id and how to build its table. run leaves
// Result.ID empty; Run and RunAll stamp it with id.
type entry struct {
	id  string
	run func(*shared) (*Result, error)
	// timed marks a table that reports wall time, which no digest of the
	// full run could pin: RunAll leaves it out (Run still runs it).
	timed bool
}

// registry lists every experiment in presentation order. IDs, Run and
// RunAll all read it.
var registry = []entry{
	{id: "table1", run: func(*shared) (*Result, error) { return table1(), nil }},
	{id: "fig3a", run: cfgOnly(fig3(advisor.SSB, advisor.DiskCluster()))},
	{id: "fig3b", run: cfgOnly(fig3(advisor.SSB, advisor.MemoryCluster()))},
	{id: "fig3c", run: cfgOnly(fig3(advisor.TPCDS, advisor.DiskCluster()))},
	{id: "fig3d", run: cfgOnly(fig3(advisor.TPCDS, advisor.MemoryCluster()))},
	{id: "fig3e", run: cfgOnly(fig3(advisor.TPCCH, advisor.DiskCluster()))},
	{id: "fig3f", run: cfgOnly(fig3(advisor.TPCCH, advisor.MemoryCluster()))},
	{id: "fig4a", run: fig4a},
	{id: "fig4b", run: fig4b},
	{id: "table2", run: cfgOnly(table2)},
	{id: "fig5", run: fig5},
	{id: "fig6", run: cfgOnly(func(cfg Config) (*Result, error) {
		return fig6(cfg, []int{2, 4, 6, 8, 10, 12, 14, 16}, 3)
	})},
	{id: "fig7a", run: fig7a},
	{id: "fig7b", run: fig7b},
	{id: "fig8a", run: cfgOnly(fig8(false))},
	{id: "fig8b", run: cfgOnly(fig8(true))},
	{id: "availability", run: cfgOnly(availability)},
	{id: "ablations", run: cfgOnly(ablations), timed: true},
	{id: "guard", run: cfgOnly(guardedOnline)},
	{id: "hotshard", run: cfgOnly(hotshard)},
}

// cfgOnly adapts an experiment that shares nothing with the others.
func cfgOnly(run func(Config) (*Result, error)) func(*shared) (*Result, error) {
	return func(sh *shared) (*Result, error) { return run(sh.cfg) }
}

// exec runs the entry and stamps its table with the id.
func (e entry) exec(sh *shared) (*Result, error) {
	r, err := e.run(sh)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.id, err)
	}
	r.ID = e.id
	return r, nil
}

// IDs returns the known experiment identifiers in presentation order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) ([]*Result, error) {
	for _, e := range registry {
		if e.id == id {
			r, err := e.exec(&shared{cfg: cfg})
			if err != nil {
				return nil, err
			}
			return []*Result{r}, nil
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, known)
}

// RunAll executes every experiment but the timed ones, in presentation
// order, building each shared artifact once. cfg.Stop is polled between
// experiments.
func RunAll(cfg Config) ([]*Result, error) {
	sh := &shared{cfg: cfg}
	var out []*Result
	for _, e := range registry {
		if e.timed {
			continue
		}
		r, err := e.exec(sh)
		if err != nil {
			return out, err
		}
		out = append(out, r)
		if cfg.Stop != nil && cfg.Stop() {
			break
		}
	}
	return out, nil
}

// shared holds what several experiments of one Run or RunAll call read,
// each built on first use: the TPC-CH offline+online training (Fig. 4a,
// 4b, 5, 7a, 7b), the committee of subspace experts (Fig. 5, 7b) and the
// learned-cost-model pair (Fig. 7a, 7b). Building the committee measures
// designs through the run's online cost, whose stats set the cost models'
// budget, so where an experiment needs both it asks for the committee
// first.
type shared struct {
	cfg              Config
	run              *onlineRun
	experts          *core.Committee
	exploit, explore *baselines.LearnedCostModel
}

func (sh *shared) onlineRun() (*onlineRun, error) {
	if sh.run == nil {
		run, err := runOnlineTPCCH(sh.cfg, true)
		if err != nil {
			return nil, err
		}
		sh.run = run
	}
	return sh.run, nil
}

func (sh *shared) committee() (*core.Committee, error) {
	if sh.experts == nil {
		run, err := sh.onlineRun()
		if err != nil {
			return nil, err
		}
		experts, err := core.BuildCommittee(run.Advisor, run.onlineCost.WorkloadCost, sh.cfg.Seed+41)
		if err != nil {
			return nil, err
		}
		sh.experts = experts
	}
	return sh.experts, nil
}

func (sh *shared) learnedCosts() (exploit, explore *baselines.LearnedCostModel, err error) {
	if sh.exploit == nil {
		run, err := sh.onlineRun()
		if err != nil {
			return nil, nil, err
		}
		sh.exploit, sh.explore = learnedCostPair(sh.cfg, run)
	}
	return sh.exploit, sh.explore, nil
}
