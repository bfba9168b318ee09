// online_tpcch demonstrates the two-phase training of the paper on TPC-CH:
// bootstrap the agent offline on the network-centric cost model, then refine
// it online against measured runtimes on a sampled database with the §4.2
// optimizations (scale factors, runtime cache, lazy repartitioning,
// timeouts) — the story of Fig. 4a.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/core"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/relation"
	"partadvisor/internal/workload"
)

func main() {
	bench := benchmarks.TPCCH()
	hw := hardware.PostgresXLDisk()
	full := bench.Generate(1, 3)
	engine := exec.New(bench.Schema, full, hw, exec.Disk)
	space := bench.Space()
	freq := bench.Workload.UniformFreq()

	// Offline phase: simulation only, no query executes.
	cm := costmodel.New(engine.TrueCatalog(), hw)
	advisor, err := core.New(space, bench.Workload, core.Repro(true), 3)
	if err != nil {
		log.Fatal(err)
	}
	offline := func(st *partition.State, f workload.FreqVector) float64 {
		return cm.WorkloadCost(st, bench.Workload, f)
	}
	if err := advisor.TrainOffline(offline, nil); err != nil {
		log.Fatal(err)
	}
	offSt, _, err := advisor.Suggest(freq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline partitioning: %s\n", offSt)
	fmt.Printf("  measured workload runtime: %.4g sim s\n\n", measure(engine, bench, offSt))

	// Online phase: a 20% sample per table (with a minimum size), per-query
	// scale factors, and the cached/lazy/timeout cost function.
	rng := rand.New(rand.NewSource(99))
	sampled := make(map[string]*relation.Relation, len(full))
	for _, tbl := range bench.Schema.Tables { // schema order: deterministic sampling
		sampled[tbl.Name] = full[tbl.Name].Sample(0.2, 50, rng)
	}
	sample := exec.New(bench.Schema, sampled, hw, exec.Disk)
	scale, setupSec := core.ComputeScaleFactors(engine, sample, bench.Workload, offSt)
	oc := core.NewOnlineCost(sample, bench.Workload, scale)
	oc.Stats.SetupSeconds = setupSec
	if err := advisor.TrainOnline(oc, nil); err != nil {
		log.Fatal(err)
	}
	advisor.InferCost = oc.WorkloadCost
	onSt, _, err := advisor.Suggest(freq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("online partitioning: %s\n", onSt)
	fmt.Printf("  measured workload runtime: %.4g sim s\n\n", measure(engine, bench, onSt))
	fmt.Printf("online phase cost: %.4g sim s (%d queries executed, %d cache hits, %d timeouts)\n",
		oc.Stats.TotalSeconds(), oc.Stats.QueriesExecuted, oc.Stats.CacheHits, oc.Stats.Aborts)
	fmt.Printf("naive online phase would have cost: %.4g sim s\n", oc.Stats.NaiveSeconds())
}

func measure(e *exec.Engine, b *benchmarks.Benchmark, st *partition.State) float64 {
	e.Deploy(st, nil)
	return core.MeasureWorkload(e, b.Workload)
}
