package advisor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// largestTable names the deployment's largest base table (first in schema
// order on a tie).
func largestTable(d *Deployment) string {
	best, rows := "", -1
	for _, t := range d.Bench.Schema.Tables {
		if rel := d.Data()[t.Name]; rel != nil && rel.Rows() > rows {
			best, rows = t.Name, rel.Rows()
		}
	}
	return best
}

// TestDeploymentCatalogConcurrentWithBulkLoad prices cold plans on the
// deployment's cost model while the engine bulk-loads into its true
// catalog. The model reads a snapshot of the catalog, so the race detector
// has nothing to report.
func TestDeploymentCatalogConcurrentWithBulkLoad(t *testing.T) {
	d := NewDeployment(Micro(), MemoryCluster(), 0.02, 1)
	wl := d.Bench.Workload
	freq := wl.UniformFreq()
	st := d.Space.InitialState()
	big := largestTable(d)
	sample := d.Data()[big].Sample(0.01, 1, rand.New(rand.NewSource(1)))

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			d.Cost.ResetCache()
			if c := d.Cost.WorkloadCost(st, wl, freq); !(c > 0) || math.IsInf(c, 0) {
				t.Errorf("workload cost %v", c)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := d.Engine.BulkLoad(big, sample); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestDeploymentCatalogSnapshotAfterBulkLoad checks that the offline model
// prices the deployment it was built for: a bulk load changes the engine's
// true statistics but not what a design costs.
func TestDeploymentCatalogSnapshotAfterBulkLoad(t *testing.T) {
	d := NewDeployment(Micro(), MemoryCluster(), 0.2, 1)
	wl := d.Bench.Workload
	freq := wl.UniformFreq()
	st := d.Space.InitialState()
	before := d.Cost.WorkloadCost(st, wl, freq)
	big := largestTable(d)
	rowsBefore := d.Engine.TrueCatalog().Rows(big)
	if err := d.Engine.BulkLoad(big, d.Data()[big]); err != nil {
		t.Fatal(err)
	}
	if d.Engine.TrueCatalog().Rows(big) == rowsBefore {
		t.Fatalf("bulk load left %s at %d rows; the test would pin nothing", big, rowsBefore)
	}
	d.Cost.ResetCache()
	if after := d.Cost.WorkloadCost(st, wl, freq); math.Float64bits(after) != math.Float64bits(before) {
		t.Fatalf("design cost moved after a bulk load: %v -> %v", before, after)
	}
}
