package experiments

import (
	"math/rand"

	"partadvisor/internal/baselines"
	"partadvisor/internal/benchmarks"
	"partadvisor/internal/core"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/env"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/relation"
	"partadvisor/internal/workload"
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
	// PrefetchWorkers pipelines offline training with speculative
	// cost-prefetch goroutines (0 = serial). Results are bit-identical at
	// every setting — the knob trades cores for wall-clock only — so
	// experiments stay reproducible regardless of the host.
	PrefetchWorkers int
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

// setup bundles one deployed benchmark database.
type setup struct {
	bench  *benchmarks.Benchmark
	space  *partition.Space
	data   map[string]*relation.Relation
	engine *exec.Engine
	// cm is the offline network-centric cost model over the engine's
	// metadata (schema + table sizes, §2).
	cm *costmodel.Model
}

// newSetup materializes a benchmark on an engine flavor.
func newSetup(cfg Config, b *benchmarks.Benchmark, hw hardware.Profile, flavor exec.Flavor) *setup {
	data := b.Generate(cfg.Scale, cfg.Seed)
	e := exec.New(b.Schema, data, hw, flavor)
	return &setup{
		bench:  b,
		space:  b.Space(),
		data:   data,
		engine: e,
		cm:     costmodel.New(e.TrueCatalog(), hw),
	}
}

// sampleEngine builds the §4.2 sampled database for online training.
// Tables are sampled in schema order: iterating the data map would consume
// the shared RNG in map order and make the sample nondeterministic across
// process runs.
func (s *setup) sampleEngine(cfg Config) *exec.Engine {
	rng := rand.New(rand.NewSource(cfg.Seed + 1000))
	sampled := make(map[string]*relation.Relation, len(s.data))
	for _, t := range s.bench.Schema.Tables {
		if rel := s.data[t.Name]; rel != nil {
			sampled[t.Name] = rel.Sample(cfg.SampleRate, cfg.MinSampleRows, rng)
		}
	}
	return exec.New(s.bench.Schema, sampled, s.engine.HW, s.engine.Flavor)
}

// offlineCost adapts the cost model to env.CostFunc.
func (s *setup) offlineCost() env.CostFunc {
	return offlineCostFor(s, s.bench.Workload)
}

// offlineCostFor adapts the cost model for a (possibly reduced) workload.
func offlineCostFor(s *setup, wl *workload.Workload) env.CostFunc {
	return func(st *partition.State, freq workload.FreqVector) float64 {
		return s.cm.WorkloadCost(st, wl, freq)
	}
}

// Named constructors keep experiment files free of benchmark/hardware
// imports.
func tpcchBench() *benchmarks.Benchmark { return benchmarks.TPCCH() }
func diskHW() hardware.Profile          { return hardware.PostgresXLDisk() }
func diskFlavor() exec.Flavor           { return exec.Disk }

// evalWorkload deploys a partitioning on the full engine and measures the
// total runtime of every workload query — the paper's evaluation metric
// ("averaged total runtime of all queries").
func (s *setup) evalWorkload(st *partition.State) float64 {
	s.engine.Deploy(st, nil)
	return core.MeasureWorkload(s.engine, s.bench.Workload)
}

// trainOfflineAdvisor builds and offline-trains a fresh advisor. With
// cfg.PrefetchWorkers > 0 the training loop runs pipelined behind a
// concurrent cost cache; the trained advisor is bit-identical to serial.
func (s *setup) trainOfflineAdvisor(cfg Config, complexSchema bool, seed int64) (*core.Advisor, error) {
	a, err := core.New(s.space, s.bench.Workload, cfg.HP(complexSchema), seed)
	if err != nil {
		return nil, err
	}
	cost := s.offlineCost()
	if cfg.PrefetchWorkers > 0 {
		cache := env.NewCostCache(cost, 0)
		cache.SetConcurrentBase(true) // costmodel.Model is concurrency-safe
		cost = cache.Cost
		a.Prefetch = &core.PrefetchConfig{Cache: cache, Workers: cfg.PrefetchWorkers}
	}
	if err := a.TrainOffline(cost, nil); err != nil {
		return nil, err
	}
	return a, nil
}

// heuristics returns the (a)/(b) heuristic partitionings for the benchmark
// class: star-schema rules for SSB and TPC-DS, normalized-schema rules for
// TPC-CH and the microbenchmark.
func (s *setup) heuristics() (ha, hb *partition.State) {
	cat := s.engine.TrueCatalog()
	switch s.bench.Name {
	case "tpcch":
		return baselines.NormalizedHeuristicA(s.space, cat),
			baselines.NormalizedHeuristicB(s.space, s.bench.Workload, cat)
	default:
		return baselines.StarHeuristicA(s.space, s.bench.Workload, cat),
			baselines.StarHeuristicB(s.space, s.bench.Workload, cat)
	}
}

// minOptimizer runs the Minimum-Optimizer baseline (nil when the engine
// exposes no estimates).
func (s *setup) minOptimizer() *partition.State {
	ha, hb := s.heuristics()
	st, ok := baselines.MinOptimizer(s.space, s.bench.Workload, s.bench.Workload.UniformFreq(),
		s.engine, []*partition.State{ha, hb}, 2*len(s.space.Tables))
	if !ok {
		return nil
	}
	return st
}
