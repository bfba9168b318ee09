// Quickstart: train a learned partitioning advisor for the Star Schema
// Benchmark and ask it for a partitioning — the minimal end-to-end use of
// the public package (benchmark definition, offline DRL training against
// the network-centric cost model, inference).
package main

import (
	"fmt"
	"log"

	"partadvisor/advisor"
)

func main() {
	// 1. The customer provides schema, data and a representative workload;
	//    their metadata (schema + table sizes) feeds the offline simulation.
	sess, err := advisor.NewSession(advisor.SSB(), advisor.DiskCluster(), 42)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Train the DRL agent offline (Algorithm 1 of the paper).
	if err := sess.TrainOffline(); err != nil {
		log.Fatal(err)
	}

	// 3. Ask for a partitioning for the observed workload mix.
	freq := sess.Bench.Workload.UniformFreq()
	st, reward, err := sess.Advisor.Suggest(freq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("suggested partitioning (reward %.3f):\n  %s\n\n", reward, st)

	// 4. Deploy it on the simulated cluster and measure the workload.
	fmt.Printf("measured SSB workload runtime: %.4g simulated seconds\n", sess.MeasureWorkload(st))
}
