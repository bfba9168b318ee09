package advisor

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"partadvisor/internal/costmodel"
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

// TestDeploymentCatalogConcurrentWithBulkLoad prices cold plans over the
// deployment's model catalog while the engine bulk-loads into its true
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
			cold := costmodel.New(d.Cost.Cat, d.Cost.HW)
			if c := cold.WorkloadCost(st, wl, freq); !(c > 0) || math.IsInf(c, 0) {
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
// prices the deployment it was built for: a bulk load followed by ANALYZE
// changes the engine's statistics but not what a design costs, whether a
// fresh model prices it cold over the deployment's catalog, the memoized
// model answers, or the offline cost cache does. Neither memo needs a reset.
func TestDeploymentCatalogSnapshotAfterBulkLoad(t *testing.T) {
	d := NewDeployment(Micro(), MemoryCluster(), 0.2, 1)
	wl := d.Bench.Workload
	freq := wl.UniformFreq()
	st := d.Space.InitialState()
	offline := d.OfflineCost()
	before := offline(st, freq)
	big := largestTable(d)
	rowsBefore := d.Engine.TrueCatalog().Rows(big)
	if err := d.Engine.BulkLoad(big, d.Data()[big]); err != nil {
		t.Fatal(err)
	}
	d.Engine.Analyze()
	if d.Engine.TrueCatalog().Rows(big) == rowsBefore {
		t.Fatalf("bulk load left %s at %d rows; the test would pin nothing", big, rowsBefore)
	}
	for _, c := range []struct {
		name string
		cost float64
	}{
		{"cold model", costmodel.New(d.Cost.Cat, d.Cost.HW).WorkloadCost(st, wl, freq)},
		{"memoized model", d.Cost.WorkloadCost(st, wl, freq)},
		{"offline cost cache", offline(st, freq)},
	} {
		if math.Float64bits(c.cost) != math.Float64bits(before) {
			t.Errorf("%s: design cost moved after a bulk load and ANALYZE: %v -> %v", c.name, before, c.cost)
		}
	}
}
