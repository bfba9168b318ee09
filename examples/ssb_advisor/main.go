// ssb_advisor compares the offline-trained DRL advisor against the DBA
// heuristics and the Minimum-Optimizer baseline on the Star Schema
// Benchmark — the story of the paper's Fig. 3a, as library code.
package main

import (
	"fmt"
	"log"

	"partadvisor/internal/baselines"
	"partadvisor/internal/benchmarks"
	"partadvisor/internal/core"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

func main() {
	bench := benchmarks.SSB()
	data := bench.Generate(1, 7)
	hw := hardware.PostgresXLDisk()
	engine := exec.New(bench.Schema, data, hw, exec.Disk)
	space := bench.Space()

	measure := func(name string, st *partition.State) {
		engine.Deploy(st, nil)
		fmt.Printf("%-22s %.4g sim s   %s\n", name, core.MeasureWorkload(engine, bench.Workload), st)
	}

	cat := engine.TrueCatalog()
	measure("Heuristic (a)", baselines.StarHeuristicA(space, bench.Workload, cat))
	measure("Heuristic (b)", baselines.StarHeuristicB(space, bench.Workload, cat))

	if mo, ok := baselines.MinOptimizer(space, bench.Workload, bench.Workload.UniformFreq(),
		engine, nil, 2*len(space.Tables)); ok {
		measure("Minimum Optimizer", mo)
	}

	cm := costmodel.New(cat, hw)
	advisor, err := core.New(space, bench.Workload, core.Repro(false), 7)
	if err != nil {
		log.Fatal(err)
	}
	err = advisor.TrainOffline(func(st *partition.State, f workload.FreqVector) float64 {
		return cm.WorkloadCost(st, bench.Workload, f)
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	st, _, err := advisor.Suggest(bench.Workload.UniformFreq())
	if err != nil {
		log.Fatal(err)
	}
	measure("RL (offline)", st)
}
