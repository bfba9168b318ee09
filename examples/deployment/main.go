// deployment reproduces the paper's Exp-5 story as library code: the same
// schema and workload have different optimal partitionings on a 10 Gbps and
// a 0.6 Gbps interconnect, and a retrained advisor adapts its suggestion to
// the deployment.
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
	bench := benchmarks.Micro()
	data := bench.Generate(1, 5)
	space := bench.Space()

	for _, hw := range []hardware.Profile{
		hardware.SystemXMemory(),
		hardware.SystemXMemory().WithSlowNetwork(),
	} {
		fmt.Printf("--- deployment %s ---\n", hw.Name)
		engine := exec.New(bench.Schema, data, hw, exec.Memory)

		// Fixed candidates: a is always co-partitioned with the large
		// dimension c; b is either partitioned or replicated.
		partB := design(space, false)
		replB := design(space, true)
		fmt.Printf("B partitioned: %.4g sim s\n", measure(engine, bench, partB))
		fmt.Printf("B replicated:  %.4g sim s\n", measure(engine, bench, replB))

		// A fresh advisor per deployment (the paper retrains per hardware).
		cm := costmodel.New(engine.TrueCatalog(), hw)
		advisor, err := core.New(space, bench.Workload, core.Repro(false), 5)
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
		fmt.Printf("RL suggestion: %.4g sim s  (%s)\n\n", measure(engine, bench, st), st)
	}
}

func design(sp *partition.Space, replicateB bool) *partition.State {
	st := sp.InitialState()
	aIdx := sp.TableIndex("a")
	ki := sp.Tables[aIdx].KeyIndex(partition.Key{"a_c"})
	st = sp.Apply(st, partition.Action{Kind: partition.ActPartition, Table: aIdx, Key: ki})
	if replicateB {
		st = sp.Apply(st, partition.Action{Kind: partition.ActReplicate, Table: sp.TableIndex("b")})
	}
	return st
}

func measure(e *exec.Engine, b *benchmarks.Benchmark, st *partition.State) float64 {
	e.Deploy(st, nil)
	return core.MeasureWorkload(e, b.Workload)
}
