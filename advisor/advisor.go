// Package advisor is the public API of the learned partitioning advisor —
// a Go implementation of "Learning a Partitioning Advisor for Cloud
// Databases" (Hilprecht, Binnig, Röhm; SIGMOD 2020).
//
// The package re-exports the stable surface of the internal subsystems as
// type aliases and thin constructors, so downstream code programs against
// one import:
//
//	sess, _ := advisor.NewSession(advisor.SSB(), advisor.DiskCluster(), 1)
//	st, _ := sess.TrainAndSuggest(nil)
//
// The full pipeline mirrors the paper's Figure 1: define (or pick) a
// database + workload, train the DRL agent offline against the
// network-centric cost model, optionally refine it online against measured
// runtimes on a sampled database, then query it for partitionings as the
// workload mix evolves. It is assembled in exactly one place: a Deployment
// (data, engine, design space, cost model) and a Session (a Deployment plus
// one advisor, one method per phase). The commands, the service, the
// experiments and the soak harnesses all stand their advisors up through
// these two types.
package advisor

import (
	"fmt"
	"math/rand"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/core"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/env"
	"partadvisor/internal/exec"
	"partadvisor/internal/faults"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/relation"
	"partadvisor/internal/schema"
	"partadvisor/internal/sqlparse"
	"partadvisor/internal/stats"
	"partadvisor/internal/workload"
)

// Re-exported core types. The aliases give access to the full method sets
// of the underlying types.
type (
	// Schema describes tables, attributes and foreign keys.
	Schema = schema.Schema
	// Table is one relation definition.
	Table = schema.Table
	// Attribute is one column definition.
	Attribute = schema.Attribute
	// ForeignKey declares a reference between two tables.
	ForeignKey = schema.ForeignKey
	// Workload is a set of representative queries plus reserved slots.
	Workload = workload.Workload
	// Query is one analyzed workload query.
	Query = workload.Query
	// FreqVector is a workload mix (normalized query frequencies).
	FreqVector = workload.FreqVector
	// Space is the partitioning design space.
	Space = partition.Space
	// Partitioning is one complete physical design.
	Partitioning = partition.State
	// Relation is columnar table data.
	Relation = relation.Relation
	// Catalog holds table statistics.
	Catalog = stats.Catalog
	// Engine is the distributed execution engine.
	Engine = exec.Engine
	// HardwareProfile describes a cluster deployment.
	HardwareProfile = hardware.Profile
	// CostModel is the network-centric cost model of the offline phase.
	CostModel = costmodel.Model
	// Hyperparams configures DRL training (Table 1 of the paper).
	Hyperparams = core.Hyperparams
	// Advisor is the trained DRL partitioning advisor.
	Advisor = core.Advisor
	// OnlineCost measures workload costs with the §4.2 optimizations.
	OnlineCost = core.OnlineCost
	// Committee is the set of DRL subspace experts (§5).
	Committee = core.Committee
	// Benchmark bundles one built-in evaluation database.
	Benchmark = benchmarks.Benchmark
	// Monitor turns an observed query stream into frequency vectors.
	Monitor = workload.Monitor
	// Forecaster predicts future workload mixes (paper §9 future work).
	Forecaster = workload.Forecaster
	// RepartitionPlanner decides whether a suggested repartitioning pays
	// off over a query horizon (paper §9 future work).
	RepartitionPlanner = core.RepartitionPlanner
	// RepartitionDecision is the planner's cost–benefit verdict.
	RepartitionDecision = core.RepartitionDecision
	// DriftDetector triggers retraining on sustained cost degradation.
	DriftDetector = core.DriftDetector
	// FaultConfig declares a deterministic fault-injection schedule.
	FaultConfig = faults.Config
	// FaultInjector evaluates a fault schedule against simulated time.
	FaultInjector = faults.Injector
	// PeriodicCrash is a repeating node-down window in a fault schedule.
	PeriodicCrash = faults.PeriodicCrash
	// NodeCrash is a one-shot node-down window in a fault schedule.
	NodeCrash = faults.NodeCrash
	// Checkpoint is a crash-safe training snapshot.
	Checkpoint = core.Checkpoint
)

// NewFaultInjector validates a fault schedule and builds its injector; arm
// it with Engine.SetFaults.
func NewFaultInjector(cfg FaultConfig) (*FaultInjector, error) { return faults.New(cfg) }

// LoadCheckpoint reads a training snapshot written by Advisor.SaveCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) { return core.LoadCheckpoint(path) }

// ErrCorruptCheckpoint marks a checkpoint file that failed integrity
// verification (truncation, bit flip, foreign file); LoadCheckpoint never
// decodes such a file.
var ErrCorruptCheckpoint = core.ErrCorruptCheckpoint

// NewForecaster builds a workload-mix forecaster over vectors of the given
// size (Holt's linear trend when trend is true).
func NewForecaster(size int, alpha float64, trend bool) (*Forecaster, error) {
	return workload.NewForecaster(size, alpha, trend)
}

// NewMonitor builds a workload monitor over a workload's query set.
func NewMonitor(wl *Workload) *Monitor { return workload.NewMonitor(wl) }

// Built-in benchmarks.
func SSB() *Benchmark   { return benchmarks.SSB() }
func TPCDS() *Benchmark { return benchmarks.TPCDS() }
func TPCCH() *Benchmark { return benchmarks.TPCCH() }
func TPCH() *Benchmark  { return benchmarks.TPCH() }
func Micro() *Benchmark { return benchmarks.Micro() }

// Cluster deployments.
func DiskCluster() HardwareProfile   { return hardware.PostgresXLDisk() }
func MemoryCluster() HardwareProfile { return hardware.SystemXMemory() }

// Hyperparameter profiles.
func PaperHyperparams(complexSchema bool) Hyperparams { return core.Paper(complexSchema) }
func ReproHyperparams(complexSchema bool) Hyperparams { return core.Repro(complexSchema) }

// ParseWorkload parses named SQL queries against a schema into a workload
// with the given number of reserved slots for future queries.
func ParseWorkload(name string, sch *Schema, queries map[string]string, order []string, reserved int) (*Workload, error) {
	return workload.Parse(name, sch, queries, order, reserved)
}

// ParseQuery parses and analyzes one SQL query.
func ParseQuery(name, sql string, sch *Schema) (*Query, error) {
	g, err := sqlparse.ParseAndAnalyze(sql, sch)
	if err != nil {
		return nil, err
	}
	return &Query{Name: name, SQL: sql, Graph: g, Weight: 1}, nil
}

// Deployment is the substrate an advisor stands on: one benchmark database
// materialized on a cluster, its partitioning design space, and the offline
// network-centric cost model over its metadata. It is deterministic in the
// four values it is built from, so a service can rebuild it from a spec and
// put a restored advisor on top.
type Deployment struct {
	Bench  *Benchmark
	Space  *Space
	Engine *Engine
	Cost   *CostModel

	data    map[string]*Relation
	offline *env.CostCache
}

// NewDeployment generates the benchmark's data at the given scale and seed
// and loads it into an engine on the cluster. Disk-like profiles get the
// Disk engine flavor (optimizer estimates exposed), others Memory. The
// offline cost model reads a snapshot of the engine's true statistics as
// generated: later bulk loads update the engine, not the metadata the
// deployment was built for (and not under a model pricing concurrently).
func NewDeployment(b *Benchmark, hw HardwareProfile, scale float64, seed int64) *Deployment {
	flavor := exec.Memory
	if hw.ScanBytesPerSec < 1e9 {
		flavor = exec.Disk
	}
	data := b.Generate(scale, seed)
	engine := exec.New(b.Schema, data, hw, flavor)
	d := &Deployment{
		Bench:  b,
		Space:  b.Space(),
		Engine: engine,
		Cost:   costmodel.New(engine.TrueCatalog().Clone(), hw),
		data:   data,
	}
	d.offline = env.NewCostCache(func(st *Partitioning, freq FreqVector) float64 {
		return d.Cost.WorkloadCost(st, b.Workload, freq)
	}, 0)
	return d
}

// Data returns the generated base tables by name (bulk-update generators
// key their rows after it).
func (d *Deployment) Data() map[string]*Relation { return d.data }

// OfflineCost returns the offline training/inference cost function:
// network-centric estimates over the deployment's metadata, memoized behind
// a bounded thread-safe cache (offline episodes re-evaluate identical
// (partitioning, mix) costs thousands of times, and every advisor and
// committee expert on this deployment shares it).
func (d *Deployment) OfflineCost() func(*Partitioning, FreqVector) float64 {
	return d.offline.Cost
}

// SampleEngine builds the §4.2 sampled copy of the database for online
// training: rate per table with a minimum row floor, on the same cluster.
// Tables are sampled in schema order — iterating the data map would consume
// the RNG in map order and make the sample differ between process runs.
func (d *Deployment) SampleEngine(rate float64, minRows int, seed int64) *Engine {
	rng := rand.New(rand.NewSource(seed))
	sampled := make(map[string]*Relation, len(d.data))
	for _, t := range d.Bench.Schema.Tables {
		if rel := d.data[t.Name]; rel != nil {
			sampled[t.Name] = rel.Sample(rate, minRows, rng)
		}
	}
	return exec.New(d.Bench.Schema, sampled, d.Engine.HW, d.Engine.Flavor)
}

// MeasureWorkload deploys a partitioning and measures the total runtime of
// every workload query on the full database — the paper's evaluation metric.
func (d *Deployment) MeasureWorkload(st *Partitioning) float64 {
	d.Engine.Deploy(st, nil)
	return core.MeasureWorkload(d.Engine, d.Bench.Workload)
}

// NewSession puts an untrained advisor on the deployment. Several sessions
// with their own seeds and hyperparameters may share one deployment.
func (d *Deployment) NewSession(hp Hyperparams, seed int64) (*Session, error) {
	adv, err := core.New(d.Space, d.Bench.Workload, hp, seed)
	if err != nil {
		return nil, err
	}
	return &Session{Deployment: d, Advisor: adv}, nil
}

// Session is a deployment plus one DRL advisor trained on it: the paper's
// Figure 1 pipeline, one method per phase.
type Session struct {
	*Deployment
	Advisor *Advisor
}

// NewSession materializes a benchmark database on a cluster at scale 1 and
// builds an untrained advisor with repro-scale hyperparameters; data and
// advisor share the seed.
func NewSession(b *Benchmark, hw HardwareProfile, seed int64) (*Session, error) {
	return NewDeployment(b, hw, 1, seed).NewSession(core.Repro(b.ComplexSchema()), seed)
}

// TrainOffline bootstraps the advisor on the cost model (Algorithm 1).
func (s *Session) TrainOffline() error {
	return s.Advisor.TrainOffline(s.OfflineCost(), nil)
}

// PrepareOnline is the first half of online refinement (§4.2): it takes the
// offline suggestion for the uniform mix, measures the per-query scale
// factors between the full and the sampled engine under it, and returns the
// measured cost function over the sample with the calibration's simulated
// time booked as SetupSeconds. Callers arm faults, a guard or the
// optimization toggles on the result before handing it to RefineOnline.
func (s *Session) PrepareOnline(sample *Engine) (*OnlineCost, error) {
	offSt, err := s.Suggest(nil)
	if err != nil {
		return nil, fmt.Errorf("advisor: train offline before online refinement: %w", err)
	}
	wl := s.Bench.Workload
	scale, setupSec := core.ComputeScaleFactors(s.Engine, sample, wl, offSt)
	oc := core.NewOnlineCost(sample, wl, scale)
	oc.Stats.SetupSeconds = setupSec
	return oc, nil
}

// RefineOnline is the second half: it trains the advisor against the
// measured cost and makes that cost (with its runtime cache) the one
// inference simulates on.
func (s *Session) RefineOnline(oc *OnlineCost) error {
	if err := s.Advisor.TrainOnline(oc, nil); err != nil {
		return err
	}
	s.Advisor.InferCost = oc.WorkloadCost
	return nil
}

// TrainOnline refines the advisor against measured runtimes on a sampled
// copy of the database (rate per table, with a minimum row floor), using
// the paper's §4.2 optimizations. It returns the online cost function with
// its accounting statistics.
func (s *Session) TrainOnline(sampleRate float64, minRows int) (*OnlineCost, error) {
	oc, err := s.PrepareOnline(s.SampleEngine(sampleRate, minRows, s.Advisor.Seed()+7))
	if err != nil {
		return nil, err
	}
	return oc, s.RefineOnline(oc)
}

// Suggest returns the advisor's partitioning for a workload mix (nil means
// the uniform mix).
func (s *Session) Suggest(freq FreqVector) (*Partitioning, error) {
	if freq == nil {
		freq = s.Bench.Workload.UniformFreq()
	}
	st, _, err := s.Advisor.Suggest(freq)
	return st, err
}

// TrainAndSuggest is the one-call happy path: offline training plus a
// suggestion for the mix (nil = uniform).
func (s *Session) TrainAndSuggest(freq FreqVector) (*Partitioning, error) {
	if err := s.TrainOffline(); err != nil {
		return nil, err
	}
	return s.Suggest(freq)
}

// Deploy applies a partitioning to the session's cluster and returns the
// simulated repartitioning time.
func (s *Session) Deploy(st *Partitioning) float64 {
	return s.Engine.Deploy(st, nil)
}

// Explain returns the engine's chosen physical plan (scan placements, join
// order and distribution strategies) for one query under the currently
// deployed partitioning, plus its simulated runtime.
func (s *Session) Explain(q *Query) (plan []string, seconds float64) {
	return s.Engine.Explain(q.Graph)
}

// BuildCommittee trains the §5 committee of DRL subspace experts on top of
// the (trained) advisor, using the given measured cost (typically the
// OnlineCost from TrainOnline so the runtime cache is reused).
func (s *Session) BuildCommittee(oc *OnlineCost) (*Committee, error) {
	if oc == nil {
		return nil, fmt.Errorf("advisor: committee needs the online cost (run TrainOnline first)")
	}
	return core.BuildCommittee(s.Advisor, oc.WorkloadCost, s.Advisor.Seed()+97)
}
