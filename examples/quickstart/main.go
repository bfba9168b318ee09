// Quickstart: train a learned partitioning advisor for the Star Schema
// Benchmark and ask it for a partitioning — the minimal end-to-end use of
// the public packages (benchmark definition, offline DRL training against
// the network-centric cost model, inference).
package main

import (
	"fmt"
	"log"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/core"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

func main() {
	// 1. The customer provides schema, data and a representative workload.
	bench := benchmarks.SSB()
	data := bench.Generate(1, 42)

	// 2. Metadata (schema + table sizes) feeds the offline simulation.
	hw := hardware.PostgresXLDisk()
	cat := exec.BuildCatalog(bench.Schema, data)
	cm := costmodel.New(cat, hw)
	offline := func(st *partition.State, freq workload.FreqVector) float64 {
		return cm.WorkloadCost(st, bench.Workload, freq)
	}

	// 3. Train the DRL agent offline (Algorithm 1 of the paper).
	advisor, err := core.New(bench.Space(), bench.Workload, core.Repro(false), 42)
	if err != nil {
		log.Fatal(err)
	}
	if err := advisor.TrainOffline(offline, nil); err != nil {
		log.Fatal(err)
	}

	// 4. Ask for a partitioning for the observed workload mix.
	freq := bench.Workload.UniformFreq()
	st, reward, err := advisor.Suggest(freq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("suggested partitioning (reward %.3f):\n  %s\n\n", reward, st)

	// 5. Deploy it on the simulated cluster and measure the workload.
	engine := exec.New(bench.Schema, data, hw, exec.Disk)
	engine.Deploy(st, nil)
	fmt.Printf("measured SSB workload runtime: %.4g simulated seconds\n", core.MeasureWorkload(engine, bench.Workload))
}
