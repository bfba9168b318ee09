// Package bench holds the testing.B micro-benchmarks: component benches
// for the substrates and ablation benches for the design choices called out
// in DESIGN.md §4. The repository's benchmark — the end-to-end and per-layer
// numbers a change is judged by — is `go run ./bench` (see bench/README.md);
// the paper's tables and figures are regenerated by `go run ./cmd/expdriver`.
package bench

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/cluster"
	"partadvisor/internal/core"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/env"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

// --- Component benches ------------------------------------------------------

func BenchmarkCostModelQuery(b *testing.B) {
	bench := benchmarks.TPCCH()
	data := bench.Generate(0.1, 1)
	cat := exec.BuildCatalog(bench.Schema, data)
	cm := costmodel.New(cat, hardware.PostgresXLDisk())
	sp := bench.Space()
	st := sp.InitialState()
	g := bench.Workload.Queries[4].Graph // Q5: 7-way join
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.ResetCache()
		cm.QueryCost(st, g)
	}
}

func BenchmarkEngineRunQuery(b *testing.B) {
	bench := benchmarks.TPCCH()
	data := bench.Generate(0.2, 1)
	e := exec.New(bench.Schema, data, hardware.PostgresXLDisk(), exec.Disk)
	e.Deploy(bench.Space().InitialState(), nil)
	g := bench.Workload.Queries[2].Graph // Q3: 4-way join
	req := exec.Request{Queries: []exec.BatchQuery{{Graph: g}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Exec(context.Background(), req)
	}
}

func BenchmarkEngineDeploy(b *testing.B) {
	bench := benchmarks.SSB()
	data := bench.Generate(0.2, 1)
	e := exec.New(bench.Schema, data, hardware.PostgresXLDisk(), exec.Disk)
	sp := bench.Space()
	s0 := sp.InitialState()
	alt := sp.Apply(s0, partition.Action{Kind: partition.ActReplicate, Table: sp.TableIndex("customer")})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			e.Deploy(alt, nil)
		} else {
			e.Deploy(s0, nil)
		}
	}
}

func BenchmarkEnvStep(b *testing.B) {
	bench := benchmarks.TPCCH()
	data := bench.Generate(0.05, 1)
	cat := exec.BuildCatalog(bench.Schema, data)
	cm := costmodel.New(cat, hardware.PostgresXLDisk())
	sp := bench.Space()
	e, err := env.New(sp, bench.Workload, func(st *partition.State, f workload.FreqVector) float64 {
		return cm.WorkloadCost(st, bench.Workload, f)
	}, len(sp.Tables)+4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	freq := bench.Workload.UniformFreq()
	e.Reset(freq)
	var buf []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		valid := e.ValidActions()
		_, _, done := e.Step(valid[rng.Intn(len(valid))])
		if done {
			e.Reset(freq)
		}
	}
	_ = buf
}

func BenchmarkTrainingEpisode(b *testing.B) {
	bench := benchmarks.Micro()
	data := bench.Generate(0.2, 1)
	cat := exec.BuildCatalog(bench.Schema, data)
	cm := costmodel.New(cat, hardware.SystemXMemory())
	hp := core.Test()
	hp.Episodes = 1
	adv, err := core.New(bench.Space(), bench.Workload, hp, 1)
	if err != nil {
		b.Fatal(err)
	}
	cost := func(st *partition.State, f workload.FreqVector) float64 {
		return cm.WorkloadCost(st, bench.Workload, f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := adv.TrainOffline(cost, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDeployRevisit alternates SSB's fact table between two hash keys —
// the training loop's dominant deploy pattern (every episode revisits a
// handful of layouts). With the shard cache each revisit is a pointer swap
// plus memoized bytes-moved accounting; uncached, every deploy re-hashes
// the full table.
func benchDeployRevisit(b *testing.B, cacheBytes int64) {
	b.Helper()
	bench := benchmarks.SSB()
	data := bench.Generate(0.2, 1)
	e := exec.New(bench.Schema, data, hardware.PostgresXLDisk(), exec.Disk)
	c := e.Cluster()
	c.SetShardCacheLimit(cacheBytes)
	designs := []cluster.Design{
		{Key: []string{"lo_custkey"}},
		{Key: []string{"lo_suppkey"}},
	}
	// Materialize both layouts once so the cached variant measures pure
	// revisits (the uncached variant rebuilds regardless).
	c.Deploy("lineorder", designs[0])
	c.Deploy("lineorder", designs[1])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Deploy("lineorder", designs[i%2])
	}
}

// BenchmarkDeployRevisit vs ...Uncached: the shard-memoization speedup
// claim (limit 0 restores the pre-cache engine behavior).
func BenchmarkDeployRevisit(b *testing.B)         { benchDeployRevisit(b, cluster.DefaultShardCacheBytes) }
func BenchmarkDeployRevisitUncached(b *testing.B) { benchDeployRevisit(b, 0) }

// --- Parallelism benches -----------------------------------------------------

// benchTrainOfflineSSB trains the SSB advisor with the paper's 128-64 hidden
// layers at the given GOMAXPROCS (the nn pool width), behind the bounded
// cost cache. The trained networks are bitwise identical across pool widths
// (TestKernelsBitIdenticalAcrossWorkers in internal/nn).
func benchTrainOfflineSSB(b *testing.B, workers int) {
	b.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	bench := benchmarks.SSB()
	data := bench.Generate(0.05, 1)
	cat := exec.BuildCatalog(bench.Schema, data)
	cm := costmodel.New(cat, hardware.PostgresXLDisk())
	hp := core.Test()
	hp.Episodes = 30
	hp.DQN.Hidden = []int{128, 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv, err := core.New(bench.Space(), bench.Workload, hp, 1)
		if err != nil {
			b.Fatal(err)
		}
		cache := env.NewCostCache(func(st *partition.State, f workload.FreqVector) float64 {
			return cm.WorkloadCost(st, bench.Workload, f)
		}, 0)
		if err := adv.TrainOffline(cache.Cost, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainOfflineSSBSequential vs ...Parallel: the pool width must not
// matter to multi-head training. No batch-32 kernel of a 128-64 net reaches
// the pool since PR 18 (nn.minParFlops), so the pair should read the same;
// before, on 2 vCPUs, the pool made training slower (257 vs 310 ms; 113 vs
// 120 ms after). A gap here means a kernel is paying for dispatch again.
func BenchmarkTrainOfflineSSBSequential(b *testing.B) { benchTrainOfflineSSB(b, 1) }
func BenchmarkTrainOfflineSSBParallel(b *testing.B) {
	benchTrainOfflineSSB(b, runtime.GOMAXPROCS(0))
}

// BenchmarkCommitteeBuild trains a naive micro advisor and builds the §5
// committee on it: fifteen episodes per expert, half the naive advisor's.
func BenchmarkCommitteeBuild(b *testing.B) {
	bench := benchmarks.Micro()
	data := bench.Generate(0.2, 1)
	cat := exec.BuildCatalog(bench.Schema, data)
	cm := costmodel.New(cat, hardware.SystemXMemory())
	sp := bench.Space()
	hp := core.Test()
	hp.Episodes = 30
	cost := func(st *partition.State, f workload.FreqVector) float64 {
		return cm.WorkloadCost(st, bench.Workload, f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naive, err := core.New(sp, bench.Workload, hp, 11)
		if err != nil {
			b.Fatal(err)
		}
		if err := naive.TrainOffline(cost, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := core.BuildCommittee(naive, cost, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostCache measures the memoization win on the offline cost hot
// path: repeated (state, mix) evaluations against TPC-CH's 7-way-join query.
func BenchmarkCostCache(b *testing.B) {
	bench := benchmarks.TPCCH()
	data := bench.Generate(0.1, 1)
	cat := exec.BuildCatalog(bench.Schema, data)
	cm := costmodel.New(cat, hardware.PostgresXLDisk())
	sp := bench.Space()
	st := sp.InitialState()
	freq := bench.Workload.UniformFreq()
	cache := env.NewCostCache(func(s *partition.State, f workload.FreqVector) float64 {
		return cm.WorkloadCost(s, bench.Workload, f)
	}, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.Cost(st, freq)
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) --------------

// ablationTrain trains an advisor on the microbenchmark and reports the
// quality (measured workload runtime of its suggestion) as a bench metric.
func ablationTrain(b *testing.B, head core.QHead, disableEdges bool) {
	b.Helper()
	bench := benchmarks.Micro()
	data := bench.Generate(0.3, 2)
	e := exec.New(bench.Schema, data, hardware.SystemXMemory(), exec.Memory)
	cm := costmodel.New(e.TrueCatalog(), e.HW)
	sp := partition.NewSpace(bench.Schema,
		bench.Workload.JoinEdges(bench.Schema.ForeignKeyEdges()),
		partition.Options{DisableEdges: disableEdges})
	cost := func(st *partition.State, f workload.FreqVector) float64 {
		return cm.WorkloadCost(st, bench.Workload, f)
	}
	var quality float64
	for i := 0; i < b.N; i++ {
		hp := core.Test()
		hp.Head = head
		adv, err := core.New(sp, bench.Workload, hp, int64(i+3))
		if err != nil {
			b.Fatal(err)
		}
		if err := adv.TrainOffline(cost, nil); err != nil {
			b.Fatal(err)
		}
		st, _, err := adv.Suggest(bench.Workload.UniformFreq())
		if err != nil {
			b.Fatal(err)
		}
		e.Deploy(st, nil)
		quality += core.MeasureWorkload(e, bench.Workload)
	}
	b.ReportMetric(quality/float64(b.N)*1e3, "sim-ms/workload")
}

// BenchmarkAblationQHeadMultiHead and ...Scalar compare the fast multi-head
// Q-network against the paper-faithful scalar Q(s,a) head: equivalent
// quality, very different training cost.
func BenchmarkAblationQHeadMultiHead(b *testing.B) { ablationTrain(b, core.MultiHead, false) }
func BenchmarkAblationQHeadScalar(b *testing.B)    { ablationTrain(b, core.ScalarHead, false) }

// BenchmarkAblationEdgeActions removes the co-partitioning edge actions the
// paper argues reduce exploration of sub-optimal designs.
func BenchmarkAblationEdgeActionsOn(b *testing.B)  { ablationTrain(b, core.MultiHead, false) }
func BenchmarkAblationEdgeActionsOff(b *testing.B) { ablationTrain(b, core.MultiHead, true) }

// ablationDouble trains with vanilla vs Double-DQN targets.
func ablationDouble(b *testing.B, double bool) {
	b.Helper()
	bench := benchmarks.Micro()
	data := bench.Generate(0.3, 4)
	e := exec.New(bench.Schema, data, hardware.SystemXMemory(), exec.Memory)
	cm := costmodel.New(e.TrueCatalog(), e.HW)
	sp := bench.Space()
	cost := func(st *partition.State, f workload.FreqVector) float64 {
		return cm.WorkloadCost(st, bench.Workload, f)
	}
	var quality float64
	for i := 0; i < b.N; i++ {
		hp := core.Test()
		hp.DQN.Double = double
		adv, err := core.New(sp, bench.Workload, hp, int64(i+5))
		if err != nil {
			b.Fatal(err)
		}
		if err := adv.TrainOffline(cost, nil); err != nil {
			b.Fatal(err)
		}
		st, _, err := adv.Suggest(bench.Workload.UniformFreq())
		if err != nil {
			b.Fatal(err)
		}
		quality += cost(st, bench.Workload.UniformFreq())
	}
	b.ReportMetric(quality/float64(b.N)*1e3, "est-sim-ms/workload")
}

// BenchmarkAblationDoubleDQN* compare vanilla DQN (the paper's algorithm)
// against Double-DQN targets.
func BenchmarkAblationDoubleDQNOff(b *testing.B) { ablationDouble(b, false) }
func BenchmarkAblationDoubleDQNOn(b *testing.B)  { ablationDouble(b, true) }
