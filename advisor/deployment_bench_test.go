package advisor

import "testing"

// deploymentSink keeps BenchmarkNewDeployment's result live.
var deploymentSink *Deployment

// BenchmarkNewDeployment stands up a TPC-H deployment at the scale of the
// service benchmark's tenants: data generation, the engine's cluster load
// and statistics, and the offline cost model.
func BenchmarkNewDeployment(b *testing.B) {
	bm, hw := TPCH(), DiskCluster()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		deploymentSink = NewDeployment(bm, hw, 0.3, 1)
	}
}
