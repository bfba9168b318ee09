package experiments

import (
	"partadvisor/advisor"
	"partadvisor/internal/baselines"
	"partadvisor/internal/core"
	"partadvisor/internal/exec"
	"partadvisor/internal/partition"
)

// Config scales experiments. The zero value is unusable; use ReproConfig or
// TestConfig.
type Config struct {
	// Profile selects hyperparameter scale per schema complexity.
	HP func(complexSchema bool) core.Hyperparams
	// Scale multiplies the repro-scale row counts of generated databases.
	Scale float64
	// SampleRate is the online phase's per-table sampling rate (§4.2).
	SampleRate float64
	// MinSampleRows is the §4.2 minimum table size after sampling.
	MinSampleRows int
	// Mixes is the number of workload mixes per accuracy cluster (Fig. 5/7b).
	Mixes int
	// Seed makes every experiment reproducible.
	Seed int64
	// Stop, when set, is polled by RunAll between experiments: once true,
	// the remaining experiments are skipped and the results so far are
	// returned (graceful shutdown).
	Stop func() bool
}

// ReproConfig is the default used by cmd/expdriver and EXPERIMENTS.md.
func ReproConfig() Config {
	return Config{HP: core.Repro, Scale: 1, SampleRate: 0.2, MinSampleRows: 50, Mixes: 40, Seed: 1}
}

// PaperConfig uses the Table-1 hyperparameters verbatim (hours of CPU).
func PaperConfig() Config {
	return Config{HP: core.Paper, Scale: 1, SampleRate: 0.2, MinSampleRows: 50, Mixes: 100, Seed: 1}
}

// TestConfig is a tiny profile for unit tests and benches.
func TestConfig() Config {
	return Config{
		HP:            func(bool) core.Hyperparams { return core.Test() },
		Scale:         0.05,
		SampleRate:    0.5,
		MinSampleRows: 20,
		Mixes:         8,
		Seed:          1,
	}
}

// sampleOf builds the §4.2 sampled database of a deployment with the
// config's sampling parameters.
func sampleOf(cfg Config, d *advisor.Deployment) *exec.Engine {
	return d.SampleEngine(cfg.SampleRate, cfg.MinSampleRows, cfg.Seed+1000)
}

// trainOffline puts a fresh advisor with the config's hyperparameters on
// the deployment and trains it offline.
func trainOffline(cfg Config, d *advisor.Deployment, seed int64) (*advisor.Session, error) {
	s, err := d.NewSession(cfg.HP(d.Bench.ComplexSchema()), seed)
	if err != nil {
		return nil, err
	}
	return s, s.TrainOffline()
}

// heuristics returns the (a)/(b) heuristic partitionings for the benchmark
// class: star-schema rules for SSB and TPC-DS, normalized-schema rules for
// TPC-CH and the microbenchmark.
func heuristics(d *advisor.Deployment) (ha, hb *partition.State) {
	cat, wl := d.Engine.TrueCatalog(), d.Bench.Workload
	switch d.Bench.Name {
	case "tpcch":
		return baselines.NormalizedHeuristicA(d.Space, cat),
			baselines.NormalizedHeuristicB(d.Space, wl, cat)
	default:
		return baselines.StarHeuristicA(d.Space, wl, cat),
			baselines.StarHeuristicB(d.Space, wl, cat)
	}
}

// minOptimizer runs the Minimum-Optimizer baseline (nil when the engine
// exposes no estimates).
func minOptimizer(d *advisor.Deployment) *partition.State {
	ha, hb := heuristics(d)
	wl := d.Bench.Workload
	st, ok := baselines.MinOptimizer(d.Space, wl, wl.UniformFreq(),
		d.Engine, []*partition.State{ha, hb}, 2*len(d.Space.Tables))
	if !ok {
		return nil
	}
	return st
}
