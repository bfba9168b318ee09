// availability demonstrates the deterministic fault-injection subsystem:
// a periodic single-node crash schedule is armed on the execution engine,
// and the workload is replayed across the schedule's up- and down-phases to
// measure how many queries each physical design can still answer.
// Partitioned tables lose a shard while the node is down; replicated tables
// keep answering through replica failover.
package main

import (
	"context"
	"fmt"
	"log"

	"partadvisor/advisor"
)

func main() {
	sess, err := advisor.NewSession(advisor.Micro(), advisor.DiskCluster(), 1)
	if err != nil {
		log.Fatal(err)
	}

	// Train the advisor offline (cost model only — it never sees a failure)
	// and take its suggestion for the uniform mix.
	offSt, err := sess.TrainAndSuggest(nil)
	if err != nil {
		log.Fatal(err)
	}

	// Reference design: replicate every table, so no single node crash can
	// lose data.
	replAll := sess.Space.InitialState()
	for ti := range sess.Space.Tables {
		replAll = sess.Space.Apply(replAll, advisor.Action{Kind: advisor.ActReplicate, Table: ti})
	}

	// Crash schedule: node 1 is down for the middle half of every period.
	// The period is calibrated to 3x the fault-free workload runtime so the
	// up-window is longer than any single query.
	period := 3 * sess.MeasureWorkload(sess.Space.InitialState())
	inj, err := advisor.NewFaultInjector(advisor.FaultConfig{
		PeriodicCrashes: []advisor.PeriodicCrash{
			{Node: 1, Period: period, DownStart: 0.25 * period, DownEnd: 0.75 * period},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("crash regime: node 1 down for the middle half of every %.3g sim s\n\n", period)
	measure(sess, "RL offline (fault-blind)", offSt, inj, period)
	measure(sess, "Replicate-all (reference)", replAll, inj, period)
}

// measure deploys a design, arms the fault schedule, and replays the
// workload over several rounds staggered across the crash period.
func measure(sess *advisor.Session, name string, st *advisor.Partitioning, inj *advisor.FaultInjector, period float64) {
	e := sess.Engine
	e.SetFaults(inj)
	defer e.SetFaults(nil)
	e.ResetClock()
	e.Deploy(st, nil)
	issued, ok := 0, 0
	for round := 0; round < 8; round++ {
		for _, q := range sess.Bench.Workload.Queries {
			issued++
			// One query per request, so each sees the clock the previous ones
			// advanced and a round sweeps across the crash phases.
			rep := e.Exec(context.Background(), advisor.Request{Queries: []advisor.BatchQuery{{Graph: q.Graph}}})
			if rep.Errs[0] == nil {
				ok++
			}
		}
		e.AdvanceClock(period * 0.31)
	}
	fmt.Printf("%-28s %3d of %3d queries answered (%.0f%%)   %s\n",
		name, ok, issued, 100*float64(ok)/float64(issued), st)
}
