package experiments

import (
	"fmt"

	"partadvisor/advisor"
	"partadvisor/internal/core"
	"partadvisor/internal/faults"
)

// guardVariant is one online-refinement run's outcome.
type guardVariant struct {
	FinalRuntime float64 // fault-free workload runtime of the suggested design
	Stats        core.OnlineStats
}

// runGuardVariant trains the same offline advisor, then refines it online on
// the sampled database under the given crash schedule, with or without the
// guard armed. Everything except the guard is seeded identically, so any
// divergence between the two runs is the guard's doing.
func runGuardVariant(d *advisor.Deployment, cfg Config, guarded bool) (*guardVariant, error) {
	wl := d.Bench.Workload

	s, err := trainOffline(cfg, d, cfg.Seed+57)
	if err != nil {
		return nil, err
	}
	sample := sampleOf(cfg, d)
	oc, err := s.PrepareOnline(sample)
	if err != nil {
		return nil, err
	}

	// Calibrate the fault schedule to the sample's fault-free runtime, as
	// in the availability experiment: node 1 is down for the middle half
	// of every period, and a 20x straggler hits node 0 in alternating
	// windows — so measurement passes swing between clean and massively
	// regressed, the regime the guard exists for.
	sample.Deploy(d.Space.InitialState(), nil)
	samplePeriod := 3 * core.MeasureWorkload(sample, wl)
	fc := faults.Config{
		PeriodicCrashes: []faults.PeriodicCrash{
			{Node: 1, Period: samplePeriod, DownStart: 0.25 * samplePeriod, DownEnd: 0.75 * samplePeriod},
		},
	}
	for w := 0; w < 64; w += 2 {
		fc.Stragglers = append(fc.Stragglers, faults.Straggler{
			Node: 0, Factor: 20,
			Window: faults.Window{Start: float64(w) * samplePeriod, End: float64(w+1) * samplePeriod},
		})
	}
	sample.SetFaults(faults.MustNew(fc))
	sample.ResetClock()

	// The §4.2 per-query timeouts are disabled in BOTH variants: on the
	// two-query microbenchmark they cap every pass at ~2x best, hiding the
	// regression signal this experiment measures. The guard is the only
	// early-cutoff mechanism under test.
	oc.UseTimeouts = false
	if guarded {
		gcfg := core.DefaultGuardConfig()
		// The canary must be a strict prefix of a pass's misses; the
		// microbenchmark has two queries, so K=1.
		gcfg.CanaryQueries = 1
		oc.Guard = &gcfg
	}
	if err := s.RefineOnline(oc); err != nil {
		return nil, err
	}
	finalSt, _, err := s.Advisor.SuggestBest(wl.UniformFreq(), oc)
	if err != nil {
		return nil, err
	}
	return &guardVariant{
		FinalRuntime: d.MeasureWorkload(finalSt),
		Stats:        oc.Stats,
	}, nil
}

// guardedOnline compares guarded and unguarded online refinement under an
// identical crash schedule and seed. The claim under test: the guard's
// canary aborts and rollbacks keep the cluster out of regressed layouts
// (fewer simulated seconds spent past 2x the best-known cost) without
// costing final design quality.
func guardedOnline(cfg Config) (*Result, error) {
	d := advisor.NewDeployment(advisor.Micro(), advisor.DiskCluster(), cfg.Scale, cfg.Seed)
	plain, err := runGuardVariant(d, cfg, false)
	if err != nil {
		return nil, err
	}
	guarded, err := runGuardVariant(d, cfg, true)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Title: "Guarded vs unguarded online refinement under a periodic node crash — microbenchmark (disk)",
		Header: []string{"Variant", "Final design runtime (sim s)", "Regressed (sim s)",
			"Online total (sim s)", "Rollbacks", "Vetoes", "Canary aborts"},
	}
	addRow := func(name string, v *guardVariant) {
		st := v.Stats
		res.AddRow(name, v.FinalRuntime, st.RegressedSeconds,
			st.ExecSeconds+st.RepartitionSeconds,
			fmt.Sprintf("%d", st.Rollbacks), fmt.Sprintf("%d", st.GuardVetoes),
			fmt.Sprintf("%d", st.CanaryAborts))
	}
	addRow("Unguarded", plain)
	addRow("Guarded", guarded)

	res.Notef("both runs share the offline advisor, seed and crash schedule; only the guard differs")
	res.Notef("regressed = simulated seconds in passes costing > 2x the then-best-known cost of the mix")
	if guarded.Stats.RollbackSeconds > 0 {
		res.Notef("rollback deploys charged %.3g sim s (counted inside the online total)", guarded.Stats.RollbackSeconds)
	}
	return res, nil
}
