// deployment reproduces the paper's Exp-5 story as library code: the same
// schema and workload have different optimal partitionings on a 10 Gbps and
// a 0.6 Gbps interconnect, and a retrained advisor adapts its suggestion to
// the deployment.
package main

import (
	"fmt"
	"log"

	"partadvisor/advisor"
)

func main() {
	for _, hw := range []advisor.HardwareProfile{
		advisor.MemoryCluster(),
		advisor.MemoryCluster().WithSlowNetwork(),
	} {
		fmt.Printf("--- deployment %s ---\n", hw.Name)
		// A fresh advisor per deployment (the paper retrains per hardware).
		sess, err := advisor.NewSession(advisor.Micro(), hw, 5)
		if err != nil {
			log.Fatal(err)
		}

		// Fixed candidates: a is always co-partitioned with the large
		// dimension c; b is either partitioned or replicated.
		fmt.Printf("B partitioned: %.4g sim s\n", sess.MeasureWorkload(design(sess.Space, false)))
		fmt.Printf("B replicated:  %.4g sim s\n", sess.MeasureWorkload(design(sess.Space, true)))

		st, err := sess.TrainAndSuggest(nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("RL suggestion: %.4g sim s  (%s)\n\n", sess.MeasureWorkload(st), st)
	}
}

func design(sp *advisor.Space, replicateB bool) *advisor.Partitioning {
	st := sp.InitialState()
	aIdx := sp.TableIndex("a")
	ki := sp.Tables[aIdx].KeyIndex([]string{"a_c"})
	st = sp.Apply(st, advisor.Action{Kind: advisor.ActPartition, Table: aIdx, Key: ki})
	if replicateB {
		st = sp.Apply(st, advisor.Action{Kind: advisor.ActReplicate, Table: sp.TableIndex("b")})
	}
	return st
}
