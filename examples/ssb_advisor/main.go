// ssb_advisor compares the offline-trained DRL advisor against the DBA
// heuristics and the Minimum-Optimizer baseline on the Star Schema
// Benchmark — the story of the paper's Fig. 3a, as library code.
package main

import (
	"fmt"
	"log"

	"partadvisor/advisor"
	"partadvisor/internal/baselines"
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
	measure("Heuristic (a)", baselines.StarHeuristicA(space, wl, cat))
	measure("Heuristic (b)", baselines.StarHeuristicB(space, wl, cat))

	if mo, ok := baselines.MinOptimizer(space, wl, wl.UniformFreq(),
		sess.Engine, nil, 2*len(space.Tables)); ok {
		measure("Minimum Optimizer", mo)
	}

	st, err := sess.TrainAndSuggest(nil)
	if err != nil {
		log.Fatal(err)
	}
	measure("RL (offline)", st)
}
