// ssb_advisor compares the offline-trained DRL advisor against the DBA
// heuristics and the Minimum-Optimizer baseline on the Star Schema
// Benchmark — the story of the paper's Fig. 3a, as library code.
package main

import (
	"fmt"
	"log"

	"partadvisor/advisor"
)

func main() {
	sess, err := advisor.NewSession(advisor.SSB(), advisor.DiskCluster(), 7)
	if err != nil {
		log.Fatal(err)
	}
	space, wl := sess.Space, sess.Bench.Workload

	measure := func(name string, st *advisor.Partitioning) {
		fmt.Printf("%-22s %.4g sim s   %s\n", name, sess.MeasureWorkload(st), st)
	}

	cat := sess.Engine.TrueCatalog()
	measure("Heuristic (a)", advisor.StarHeuristicA(space, wl, cat))
	measure("Heuristic (b)", advisor.StarHeuristicB(space, wl, cat))

	if mo, ok := advisor.MinOptimizer(space, wl, wl.UniformFreq(),
		sess.Engine, nil, 2*len(space.Tables)); ok {
		measure("Minimum Optimizer", mo)
	}

	st, err := sess.TrainAndSuggest(nil)
	if err != nil {
		log.Fatal(err)
	}
	measure("RL (offline)", st)
}
