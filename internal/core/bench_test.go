package core

import (
	"fmt"
	"runtime"
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/env"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

// benchTrainOffline measures one offline training run on SSB with the given
// number of speculative prefetch workers (0 = serial). The cost model is
// constructed fresh INSIDE the measured loop: its per-query memos warm as
// the run proceeds — exactly like a real training job — and a pre-warmed
// model would collapse every evaluation to a cache hit and hide the
// pipelining win.
func benchTrainOffline(b *testing.B, workers int) {
	b.Helper()
	bench := benchmarks.SSB()
	data := bench.Generate(0.05, 1)
	cat := exec.BuildCatalog(bench.Schema, data)
	hp := Test()
	hp.Episodes = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm := costmodel.New(cat, hardware.PostgresXLDisk())
		a, err := New(bench.Space(), bench.Workload, hp, 1)
		if err != nil {
			b.Fatal(err)
		}
		cc := env.NewCostCache(func(st *partition.State, f workload.FreqVector) float64 {
			return cm.WorkloadCost(st, bench.Workload, f)
		}, 0)
		if workers > 0 {
			cc.SetConcurrentBase(true)
			a.Prefetch = &PrefetchConfig{Cache: cc, Workers: workers}
		}
		if err := a.TrainOffline(cc.Cost, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainOfflineSerial vs ...Prefetched: the PR's headline offline
// wall-clock claim — identical training trajectory, cores hiding the cost
// evaluations.
func BenchmarkTrainOfflineSerial(b *testing.B) { benchTrainOffline(b, 0) }
func BenchmarkTrainOfflinePrefetched(b *testing.B) {
	benchTrainOffline(b, runtime.NumCPU())
}

// BenchmarkTrainOfflinePrefetchSweep sweeps the prefetch-worker count
// 1, 2, 4, … up to NumCPU — the saturation curve for the speculative
// pipeline.
func BenchmarkTrainOfflinePrefetchSweep(b *testing.B) {
	max := runtime.NumCPU()
	for w := 1; ; w *= 2 {
		if w > max {
			break
		}
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchTrainOffline(b, w) })
	}
	if max > 1 && max&(max-1) != 0 { // NumCPU itself when not a power of two
		b.Run(fmt.Sprintf("workers=%d", max), func(b *testing.B) { benchTrainOffline(b, max) })
	}
}
