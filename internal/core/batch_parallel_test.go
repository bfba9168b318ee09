package core

import (
	"runtime"
	"sync"
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/exec"
	"partadvisor/internal/faults"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
)

// onlinePass drives one OnlineCost over a spread of designs and mixes and
// returns the sequence of measured workload costs plus the final stats.
// OnlineCost sizes its batches' worker pool from GOMAXPROCS, so procs pins
// the worker count (1 runs every batch inline).
func onlinePass(t *testing.T, procs int, inject *faults.Config) ([]float64, OnlineStats) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	b := benchmarks.Micro()
	sp := b.Space()
	e := exec.New(b.Schema, b.Generate(0.3, 5), hardware.SystemXMemory(), exec.Memory)
	if inject != nil {
		e.SetFaults(faults.MustNew(*inject))
		e.SetSelfHeal(true)
	}
	oc := NewOnlineCost(e, b.Workload, nil)

	states := []*partition.State{sp.InitialState()}
	for _, vi := range sp.ValidActions(states[0], nil) {
		states = append(states, sp.Apply(states[0], sp.Actions()[vi]))
		if len(states) == 4 {
			break
		}
	}
	var costs []float64
	uniform := b.Workload.UniformFreq()
	for pass := 0; pass < 2; pass++ { // second pass exercises the cache
		for i, st := range states {
			costs = append(costs, oc.WorkloadCost(st, uniform))
			skew := b.Workload.ExtremeFreq(i%len(b.Workload.Queries), 0.1, 1.0)
			costs = append(costs, oc.WorkloadCost(st, skew))
		}
	}
	return costs, oc.Stats
}

// TestOnlineCostParallelMatchesSequential is the end-to-end determinism
// guarantee the batch contract buys: fanning a state's cache misses across
// the worker pool changes nothing observable — every measured cost and every
// stat is bit-identical to the single-worker path, with and without an armed
// fault schedule.
func TestOnlineCostParallelMatchesSequential(t *testing.T) {
	schedules := map[string]*faults.Config{
		"perfect": nil,
		"faulted": {
			Seed:                 9,
			TransientFailureRate: 0.1,
			Stragglers: []faults.Straggler{
				{Node: 0, Factor: 2, Window: faults.Window{Start: 0, End: 1e9}},
			},
		},
		// Crash/rejoin cycles plus partition windows spread over several
		// decades of simulated time (the pass's total sim time depends on
		// the workload), with self-healing armed: repairs, partition
		// errors and retry backoffs must all stay bit-identical across
		// worker counts.
		"partitioned": {
			Seed:                 11,
			TransientFailureRate: 0.05,
			PeriodicCrashes: []faults.PeriodicCrash{
				{Node: 1, Period: 1e-3, DownStart: 4e-4, DownEnd: 7e-4},
			},
			Partitions: []faults.NetPartition{
				faults.SeededBisect(11, 4, faults.Window{Start: 2e-4, End: 6e-4}),
				faults.SeededBisect(12, 4, faults.Window{Start: 2e-3, End: 6e-3}),
				faults.SeededBisect(13, 4, faults.Window{Start: 2e-2, End: 6e-2}),
				faults.SeededBisect(14, 4, faults.Window{Start: 2e-1, End: 6e-1}),
			},
		},
	}
	for name, inject := range schedules {
		t.Run(name, func(t *testing.T) {
			seqCosts, seqStats := onlinePass(t, 1, inject)
			parCosts, parStats := onlinePass(t, 4, inject)
			for i := range seqCosts {
				if seqCosts[i] != parCosts[i] {
					t.Fatalf("measurement %d: parallel %v != sequential %v", i, parCosts[i], seqCosts[i])
				}
			}
			if seqStats != parStats {
				t.Fatalf("stats diverge:\nsequential %+v\nparallel   %+v", seqStats, parStats)
			}
			if inject != nil && seqStats.Retries == 0 {
				t.Fatal("10% transient rate produced no retries")
			}
		})
	}
}

// TestConcurrentBatchesAndCommitteeTraining shares one engine between
// parallel committee expert training (measured cost, synchronized through
// the engine mutex) and a foreground loop hammering Exec — the -race
// proof that batch fan-out composes with every other engine user.
func TestConcurrentBatchesAndCommitteeTraining(t *testing.T) {
	b := benchmarks.Micro()
	sp := b.Space()
	e := exec.New(b.Schema, b.Generate(0.3, 5), hardware.SystemXMemory(), exec.Memory)
	hp := Test()
	hp.Episodes = 4

	naive, err := New(sp, b.Workload, hp, 21)
	if err != nil {
		t.Fatal(err)
	}
	oc := NewOnlineCost(e, b.Workload, nil)
	if err := naive.TrainOffline(oc.WorkloadCost, nil); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			MeasureWorkload(e, b.Workload)
		}
	}()

	cfg := DefaultCommitteeConfig(naive)
	cfg.ExpertEpisodes = 2
	if _, err := BuildCommittee(naive, oc.WorkloadCost, cfg); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
