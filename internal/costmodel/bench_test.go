package costmodel_test

import (
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
)

// BenchmarkPlanCost prices a workload cold: each op builds a fresh model,
// with no memo or plan skeletons, then costs every query under 50 designs of
// a seeded random walk — what bootstrapping an advisor asks of the cost model.
func BenchmarkPlanCost(b *testing.B) {
	for _, name := range []string{"tpcch", "tpcds"} {
		b.Run(name, func(b *testing.B) {
			bench := benchmarks.ByName(name)
			cat := exec.BuildCatalog(bench.Schema, bench.Generate(0.3, 1))
			states := walkStates(bench.Space(), 1, 1, 49)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := costmodel.New(cat, hardware.PostgresXLDisk())
				for _, st := range states {
					for _, q := range bench.Workload.Queries {
						m.QueryCost(st, q.Graph)
					}
				}
			}
		})
	}
}
