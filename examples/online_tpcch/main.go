// online_tpcch demonstrates the two-phase training of the paper on TPC-CH:
// bootstrap the agent offline on the network-centric cost model, then refine
// it online against measured runtimes on a sampled database with the §4.2
// optimizations (scale factors, runtime cache, lazy repartitioning,
// timeouts) — the story of Fig. 4a.
package main

import (
	"fmt"
	"log"

	"partadvisor/advisor"
)

func main() {
	sess, err := advisor.NewSession(advisor.TPCCH(), advisor.DiskCluster(), 3)
	if err != nil {
		log.Fatal(err)
	}

	// Offline phase: simulation only, no query executes.
	offSt, err := sess.TrainAndSuggest(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline partitioning: %s\n", offSt)
	fmt.Printf("  measured workload runtime: %.4g sim s\n\n", sess.MeasureWorkload(offSt))

	// Online phase: a 20% sample per table (with a minimum size), per-query
	// scale factors, and the cached/lazy/timeout cost function. The two
	// steps are what sess.TrainOnline(0.2, 50) chains, spelled out with this
	// example's own sample seed.
	oc, err := sess.PrepareOnline(sess.SampleEngine(0.2, 50, 99))
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.RefineOnline(oc); err != nil {
		log.Fatal(err)
	}
	onSt, err := sess.Suggest(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("online partitioning: %s\n", onSt)
	fmt.Printf("  measured workload runtime: %.4g sim s\n\n", sess.MeasureWorkload(onSt))
	fmt.Printf("online phase cost: %.4g sim s (%d queries executed, %d cache hits, %d timeouts)\n",
		oc.Stats.TotalSeconds(), oc.Stats.QueriesExecuted, oc.Stats.CacheHits, oc.Stats.Aborts)
	fmt.Printf("naive online phase would have cost: %.4g sim s\n", oc.Stats.NaiveSeconds())
}
