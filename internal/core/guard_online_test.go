package core

import (
	"errors"
	"math"
	"sync"
	"testing"

	"partadvisor/internal/cluster"
	"partadvisor/internal/exec"
	"partadvisor/internal/faults"
	"partadvisor/internal/partition"
)

func TestOnlineCostValidate(t *testing.T) {
	b, _, e := onlineFixture(t)
	guarded := func(c GuardConfig) *OnlineCost {
		oc := NewOnlineCost(e, b.Workload, nil)
		oc.Guard = &c
		return oc
	}
	if err := NewOnlineCost(e, b.Workload, nil).Validate(); err != nil {
		t.Fatalf("unguarded OnlineCost invalid: %v", err)
	}
	if err := guarded(DefaultGuardConfig()).Validate(); err != nil {
		t.Fatalf("DefaultGuardConfig invalid: %v", err)
	}
	for _, tc := range badGuardConfigs {
		c := DefaultGuardConfig()
		tc.mut(&c)
		oc := guarded(c)
		if err := oc.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Validate = %v, want ErrBadConfig", tc.name, err)
		}
		// TrainOnline must refuse to start with the bad guard.
		hp := Test()
		hp.OnlineEpisodes = 1
		adv, err := New(b.Space(), b.Workload, hp, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := adv.TrainOnline(oc, nil); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: TrainOnline = %v, want ErrBadConfig", tc.name, err)
		}
	}
}

// clusterDesignOf reconstructs the cluster design a partitioning state
// prescribes for one table.
func clusterDesignOf(st *partition.State, table string) cluster.Design {
	if key, ok := st.KeyOf(table); ok {
		return cluster.Design{Key: key}
	}
	return cluster.Design{Replicated: true}
}

// moveAccounting reads the engine's conservation counters (call only after
// all concurrent work on the engine has finished).
func moveAccounting(e *exec.Engine) (moved, deployed, repaired int64) {
	_, _, moved = e.Counters()
	return moved, e.DeployedBytes, e.RepairedBytes
}

func TestGuardedVetoNeverDeploys(t *testing.T) {
	b, sp, e := onlineFixture(t)
	oc := NewOnlineCost(e, b.Workload, nil)
	cfg := DefaultGuardConfig()
	cfg.MaxTableBytes = 1 // every non-empty table exceeds the ceiling
	oc.Guard = &cfg
	freq := b.Workload.UniformFreq()
	preQ, preR, preMoved := e.Counters()
	cost := oc.WorkloadCost(sp.InitialState(), freq)
	if math.IsInf(cost, 1) || cost <= 0 {
		t.Fatalf("veto penalty = %v, want finite positive", cost)
	}
	if oc.Stats.GuardVetoes != 1 {
		t.Fatalf("GuardVetoes = %d", oc.Stats.GuardVetoes)
	}
	q, r, moved := e.Counters()
	if q != preQ || r != preR || moved != preMoved {
		t.Fatalf("vetoed design touched the engine: %d/%d/%d -> %d/%d/%d", preQ, preR, preMoved, q, r, moved)
	}
	if len(oc.Visited()) != 0 {
		t.Fatalf("vetoed design registered as visited")
	}
	// The penalty must not become the cost to beat: a later clean
	// measurement under a permissive guard still records its real cost.
	if got := oc.WorkloadCost(sp.InitialState(), freq); got != cost {
		t.Fatalf("repeat veto penalty %v != %v", got, cost)
	}
}

func TestGuardedRollbackRestoresBest(t *testing.T) {
	b, sp, e := onlineFixture(t)
	wl := b.Workload
	freq := wl.UniformFreq()
	cfg := DefaultGuardConfig()
	cfg.CanaryQueries = 0 // full pass measures, so the rollback path decides
	cfg.CanaryRegressionFactor = 0
	oc := NewOnlineCost(e, wl, nil)
	// The §4.2 timeouts would cap every measurement at ~2x best and mask
	// the regression; the rollback path must work without them too.
	oc.UseTimeouts = false
	oc.Guard = &cfg

	best := sp.InitialState()
	bestCost := oc.WorkloadCost(best, freq)
	if math.IsInf(bestCost, 1) {
		t.Fatalf("baseline measurement failed")
	}

	// A 10x straggler on every node makes any further measurement regress
	// far past RollbackFactor x best.
	now := e.SimNow()
	var slow []faults.Straggler
	for n := 0; n < e.HW.Nodes; n++ {
		slow = append(slow, faults.Straggler{Node: n, Factor: 10, Window: faults.Window{Start: now, End: math.Inf(1)}})
	}
	e.SetFaults(faults.MustNew(faults.Config{Stragglers: slow}))

	worse := sp.Apply(best, partition.Action{Kind: partition.ActReplicate, Table: 0})
	cost := oc.WorkloadCost(worse, freq)
	if cost <= 2*bestCost {
		t.Fatalf("straggler regression too mild to trigger rollback: %v vs best %v", cost, bestCost)
	}
	if oc.Stats.Rollbacks != 1 {
		t.Fatalf("Rollbacks = %d, want 1", oc.Stats.Rollbacks)
	}
	if oc.Stats.RollbackSeconds <= 0 {
		t.Fatalf("RollbackSeconds = %v, want > 0", oc.Stats.RollbackSeconds)
	}
	recs := oc.Rollbacks()
	if len(recs) != 1 || !recs[0].Consistent {
		t.Fatalf("rollback log = %+v", recs)
	}
	// Invariant: the deployed layout equals best-known bit-for-bit.
	for _, ts := range sp.Tables {
		got := e.CurrentDesign(ts.Name)
		want := clusterDesignOf(best, ts.Name)
		if !got.Equal(want) {
			t.Fatalf("table %q deployed as %+v after rollback, want %+v", ts.Name, got, want)
		}
	}
	// Conservation holds with rollback deploys included.
	if moved, deployed, repaired := moveAccounting(e); moved != deployed+repaired {
		t.Fatalf("BytesMoved %d != DeployedBytes %d + RepairedBytes %d", moved, deployed, repaired)
	}
}

func TestGuardedCanaryAbortCharged(t *testing.T) {
	b, sp, e := onlineFixture(t)
	wl := b.Workload
	freq := wl.UniformFreq()
	oc := NewOnlineCost(e, wl, nil)
	// Without per-query timeouts the canary is the only early cutoff, so
	// the abort is attributable to it alone.
	oc.UseTimeouts = false
	gcfg := DefaultGuardConfig()
	// The canary must be a strict prefix of the misses; the microbenchmark
	// has two queries, so K=1.
	gcfg.CanaryQueries = 1
	oc.Guard = &gcfg

	best := sp.InitialState()
	bestCost := oc.WorkloadCost(best, freq) // first pass: no canary (no best yet)
	if oc.Stats.CanaryAborts != 0 {
		t.Fatalf("first pass aborted its own canary")
	}

	now := e.SimNow()
	var slow []faults.Straggler
	for n := 0; n < e.HW.Nodes; n++ {
		slow = append(slow, faults.Straggler{Node: n, Factor: 50, Window: faults.Window{Start: now, End: math.Inf(1)}})
	}
	e.SetFaults(faults.MustNew(faults.Config{Stragglers: slow}))

	preExecuted := oc.Stats.QueriesExecuted
	worse := sp.Apply(best, partition.Action{Kind: partition.ActReplicate, Table: 0})
	penalty := oc.WorkloadCost(worse, freq)
	if oc.Stats.CanaryAborts != 1 {
		t.Fatalf("CanaryAborts = %d, want 1 (stats %+v)", oc.Stats.CanaryAborts, oc.Stats)
	}
	if penalty != 2*bestCost {
		t.Fatalf("canary-abort penalty = %v, want 2x best %v", penalty, bestCost)
	}
	ran := oc.Stats.QueriesExecuted - preExecuted
	if ran <= 0 || ran >= activeQueries(freq) {
		t.Fatalf("canary executed %d queries, want a strict prefix of %d", ran, activeQueries(freq))
	}
	// The aborted pass counts as regressed time and rolls back to best.
	if oc.Stats.RegressedSeconds <= 0 {
		t.Fatalf("RegressedSeconds = %v after a canary abort", oc.Stats.RegressedSeconds)
	}
	if oc.Stats.Rollbacks != 1 {
		t.Fatalf("Rollbacks = %d after a canary abort, want 1", oc.Stats.Rollbacks)
	}
}

// activeQueries counts the queries a frequency vector actually weights.
func activeQueries(freq []float64) int {
	n := 0
	for _, f := range freq {
		if f > 0 {
			n++
		}
	}
	return n
}

func TestGuardedConcurrentAdvisorsRace(t *testing.T) {
	// Two guarded advisors refine online concurrently against ONE shared
	// engine (each with its own guarded OnlineCost, as the committee does).
	// The engine mutex serializes every deploy/execution; -race must stay
	// silent and both guards must keep their accounting self-consistent.
	b, sp, e := onlineFixture(t)
	hp := Test()
	hp.Episodes = 8
	hp.OnlineEpisodes = 5

	var wg sync.WaitGroup
	errs := make([]error, 2)
	stats := make([]OnlineStats, 2)
	for i := 0; i < 2; i++ {
		adv, err := New(sp, b.Workload, hp, int64(31+i))
		if err != nil {
			t.Fatal(err)
		}
		oc := NewOnlineCost(e, b.Workload, nil)
		gcfg := DefaultGuardConfig()
		oc.Guard = &gcfg
		wg.Add(1)
		go func(i int, adv *Advisor, oc *OnlineCost) {
			defer wg.Done()
			if err := adv.TrainOffline(oc.WorkloadCost, nil); err != nil {
				errs[i] = err
				return
			}
			errs[i] = adv.TrainOnline(oc, nil)
			stats[i] = oc.Stats
		}(i, adv, oc)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("advisor %d: %v", i, err)
		}
	}
	for i, st := range stats {
		if st.QueriesExecuted == 0 {
			t.Fatalf("advisor %d executed no queries", i)
		}
	}
	if moved, deployed, repaired := moveAccounting(e); moved != deployed+repaired {
		t.Fatalf("BytesMoved %d != DeployedBytes %d + RepairedBytes %d", moved, deployed, repaired)
	}
}
