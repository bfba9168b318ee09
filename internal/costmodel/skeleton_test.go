package costmodel_test

import (
	"math"
	"sync"
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/sqlparse"
	"partadvisor/internal/workload"
)

// TestGreedyPlanOnThirteenAliases prices the synthetic 13-alias chain and
// star — one alias past the DP's limit, so only the greedy planner reaches
// them — over a random walk: every cost is finite and positive, and two
// models over the same catalog agree bit for bit.
func TestGreedyPlanOnThirteenAliases(t *testing.T) {
	syn := synthetic()
	for _, wl := range []*workload.Workload{syn.chain, syn.star} {
		g := wl.Queries[0].Graph
		if len(g.Refs) != 13 {
			t.Fatalf("%s has %d aliases, want 13", wl.Name, len(g.Refs))
		}
		for _, hw := range []hardware.Profile{hardware.PostgresXLDisk(), hardware.SystemXMemory()} {
			m1, m2 := costmodel.New(syn.cat, hw), costmodel.New(syn.cat, hw)
			for _, st := range walkStates(syn.space, 3, 2, 15) {
				c1, c2 := m1.QueryCost(st, g), m2.QueryCost(st, g)
				if !(c1 > 0) || math.IsInf(c1, 0) {
					t.Fatalf("%s under %s: cost %v", wl.Name, st, c1)
				}
				if math.Float64bits(c1) != math.Float64bits(c2) {
					t.Fatalf("%s under %s: models disagree: %v vs %v", wl.Name, st, c1, c2)
				}
			}
		}
	}
}

// TestConcurrentPricingMatchesSerial shares one model, as committee experts
// and batched suggestions do, between four goroutines pricing interleaved
// (design, query) pairs of two benchmarks in different orders. Every value
// must equal the bits a serial pass on another model over the same catalog
// computed.
func TestConcurrentPricingMatchesSerial(t *testing.T) {
	type pair struct {
		st *partition.State
		g  *sqlparse.Graph
	}
	// TPC-CH and the microbenchmark share no table name, so one catalog
	// holds both.
	ch, micro := benchmarks.TPCCH(), benchmarks.Micro()
	cat := exec.BuildCatalog(ch.Schema, ch.Generate(0.3, 1))
	for name, ts := range exec.BuildCatalog(micro.Schema, micro.Generate(0.3, 1)).Tables {
		cat.SetTable(name, ts)
	}
	var pairs []pair
	chStates := walkStates(ch.Space(), 5, 2, 8)
	microStates := walkStates(micro.Space(), 5, 2, 8)
	for i := range chStates {
		for j, q := range ch.Workload.Queries {
			pairs = append(pairs, pair{chStates[i], q.Graph})
			mq := micro.Workload.Queries[j%len(micro.Workload.Queries)]
			pairs = append(pairs, pair{microStates[i%len(microStates)], mq.Graph})
		}
	}
	hw := hardware.PostgresXLDisk()
	serial := costmodel.New(cat, hw)
	want := make([]uint64, len(pairs))
	for i, p := range pairs {
		want[i] = math.Float64bits(serial.QueryCost(p.st, p.g))
	}

	shared := costmodel.New(cat, hw)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range pairs {
				i := (k + w*len(pairs)/workers) % len(pairs)
				if w%2 == 1 {
					i = len(pairs) - 1 - i
				}
				if got := math.Float64bits(shared.QueryCost(pairs[i].st, pairs[i].g)); got != want[i] {
					t.Errorf("worker %d, pair %d: %v, serial %v", w, i, math.Float64frombits(got), math.Float64frombits(want[i]))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
