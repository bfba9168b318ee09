package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/exec"
	"partadvisor/internal/faults"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
)

// guardRig is one materialized microbenchmark cluster under a guarded
// OnlineCost.
type guardRig struct {
	eng  *exec.Engine
	sp   *partition.Space
	part *partition.State // every table hash-partitioned
	repl *partition.State // every table replicated
	oc   *OnlineCost
}

func newGuardRig(t *testing.T, cfg GuardConfig) *guardRig {
	t.Helper()
	b := benchmarks.Micro()
	e := exec.New(b.Schema, b.Generate(0.05, 1), hardware.SystemXMemory(), exec.Memory)
	sp := b.Space()
	part := sp.InitialState()
	repl := part
	for ti := range sp.Tables {
		repl = sp.Apply(repl, partition.Action{Kind: partition.ActReplicate, Table: ti})
	}
	oc := NewOnlineCost(e, b.Workload, nil)
	oc.Guard = &cfg
	if err := oc.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return &guardRig{eng: e, sp: sp, part: part, repl: repl, oc: oc}
}

// badGuardConfigs are the mutations of DefaultGuardConfig that validation
// must reject with ErrBadConfig.
var badGuardConfigs = []struct {
	name string
	mut  func(*GuardConfig)
}{
	{"negative MaxTableBytes", func(c *GuardConfig) { c.MaxTableBytes = -1 }},
	{"negative CanaryQueries", func(c *GuardConfig) { c.CanaryQueries = -1 }},
	{"canary factor at 1", func(c *GuardConfig) { c.CanaryRegressionFactor = 1 }},
	{"canary factor below 1", func(c *GuardConfig) { c.CanaryRegressionFactor = 0.5 }},
	{"rollback factor at 1", func(c *GuardConfig) { c.RollbackFactor = 1 }},
	{"negative WindowPasses", func(c *GuardConfig) { c.WindowPasses = -1 }},
	{"negative WindowBytes", func(c *GuardConfig) { c.WindowPasses = 0; c.WindowBytes = -1 }},
	{"negative WindowDegradedSec", func(c *GuardConfig) { c.WindowDegradedSec = -0.5 }},
	{"caps without window", func(c *GuardConfig) { c.WindowPasses = 0; c.WindowBytes = 1 << 20 }},
}

func TestConfigValidate(t *testing.T) {
	ok := DefaultGuardConfig()
	if err := ok.validate(); err != nil {
		t.Fatalf("DefaultGuardConfig invalid: %v", err)
	}
	if err := (&GuardConfig{}).validate(); err != nil {
		t.Fatalf("zero GuardConfig invalid: %v", err)
	}
	for _, tc := range badGuardConfigs {
		c := DefaultGuardConfig()
		tc.mut(&c)
		if err := c.validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: validate = %v, want ErrBadConfig", tc.name, err)
		}
		if err := (&OnlineCost{Guard: &c}).Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: OnlineCost accepted the bad guard (%v)", tc.name, err)
		}
	}
}

func TestCheckDesignHealthy(t *testing.T) {
	r := newGuardRig(t, DefaultGuardConfig())
	if err := r.oc.checkDesign(r.part); err != nil {
		t.Errorf("partitioned design vetoed on a healthy cluster: %v", err)
	}
	if err := r.oc.checkDesign(r.repl); err != nil {
		t.Errorf("replicated design vetoed on a healthy cluster: %v", err)
	}
}

func TestCheckDesignPermanentLoss(t *testing.T) {
	r := newGuardRig(t, DefaultGuardConfig())
	// Node 1 is lost forever from t=1: hash shards assigned to it have no
	// surviving copy, so hash-partitioning any non-empty table is infeasible.
	r.eng.SetFaults(faults.MustNew(faults.Config{Crashes: []faults.NodeCrash{
		{Node: 1, Window: faults.Window{Start: 1, End: math.Inf(1)}},
	}}))
	r.eng.ResetClock()
	r.eng.AdvanceClock(2)
	err := r.oc.checkDesign(r.part)
	if err == nil || !strings.Contains(err.Error(), "permanently lost") {
		t.Errorf("partitioned design under permanent loss: err = %v, want permanent-loss veto", err)
	}
	// Replication survives any single permanent loss.
	if err := r.oc.checkDesign(r.repl); err != nil {
		t.Errorf("replicated design vetoed under permanent loss: %v", err)
	}
	// Before the loss begins the partitioned design is still fine.
	r.eng.ResetClock()
	if err := r.oc.checkDesign(r.part); err != nil {
		t.Errorf("partitioned design vetoed before the loss window: %v", err)
	}
}

// TestCheckDesignMinLiveNodes: with every node down no design may deploy;
// once they rejoin the same design passes.
func TestCheckDesignMinLiveNodes(t *testing.T) {
	r := newGuardRig(t, DefaultGuardConfig())
	var crashes []faults.NodeCrash
	for n := 0; n < r.eng.HW.Nodes; n++ {
		crashes = append(crashes, faults.NodeCrash{Node: n, Window: faults.Window{Start: 0, End: 100}})
	}
	r.eng.SetFaults(faults.MustNew(faults.Config{Crashes: crashes}))
	r.eng.ResetClock()
	if err := r.oc.checkDesign(r.repl); err == nil || !strings.Contains(err.Error(), "live") {
		t.Errorf("deploy allowed with every node down: err = %v, want live-node veto", err)
	}
	r.eng.AdvanceClock(200) // nodes back up
	if err := r.oc.checkDesign(r.repl); err != nil {
		t.Errorf("deploy vetoed after the crash window: %v", err)
	}
}

func TestCheckDesignFootprintCeilings(t *testing.T) {
	cfg := DefaultGuardConfig()
	cfg.MaxTableBytes = 1 // every non-empty table exceeds this
	r := newGuardRig(t, cfg)
	if err := r.oc.checkDesign(r.repl); err == nil || !strings.Contains(err.Error(), "ceiling") {
		t.Errorf("MaxTableBytes=1: err = %v, want footprint veto", err)
	}
}

func TestCanaryLifecycle(t *testing.T) {
	r := newGuardRig(t, DefaultGuardConfig())
	sig := r.part.Signature()
	if !r.oc.needsCanary(sig) {
		t.Fatalf("never-measured design does not need a canary")
	}
	// A clean full pass (the first of a mix has no best to canary against)
	// marks the design measured.
	r.oc.WorkloadCost(r.part, r.oc.WL.UniformFreq())
	if r.oc.needsCanary(sig) {
		t.Fatalf("measured design still needs a canary")
	}
	// Canary disabled → never needed.
	cfg := DefaultGuardConfig()
	cfg.CanaryQueries = 0
	cfg.CanaryRegressionFactor = 0
	if newGuardRig(t, cfg).oc.needsCanary(sig) {
		t.Fatalf("canary stage disabled but needsCanary = true")
	}
}

func TestBudgetWindow(t *testing.T) {
	cfg := DefaultGuardConfig()
	cfg.WindowPasses = 3
	cfg.WindowBytes = 100
	oc := newGuardRig(t, cfg).oc
	if oc.budgetExhausted() {
		t.Fatalf("budget exhausted before any pass")
	}
	oc.recordPass(60, 0)
	if oc.budgetExhausted() {
		t.Fatalf("budget exhausted at 60/100 bytes")
	}
	oc.recordPass(60, 0)
	if !oc.budgetExhausted() {
		t.Fatalf("budget not exhausted at 120/100 bytes")
	}
	// Two cheap passes age the expensive ones out of the 3-pass window.
	oc.recordPass(0, 0)
	oc.recordPass(0, 0)
	if oc.budgetExhausted() {
		t.Fatalf("budget still exhausted after the spend aged out")
	}

	// Degraded-seconds cap works the same way.
	cfg = DefaultGuardConfig()
	cfg.WindowPasses = 2
	cfg.WindowDegradedSec = 1.0
	oc = newGuardRig(t, cfg).oc
	oc.recordPass(0, 0.7)
	oc.recordPass(0, 0.7)
	if !oc.budgetExhausted() {
		t.Fatalf("degraded-seconds budget not exhausted at 1.4/1.0")
	}
}

func TestObserveBestAndShouldRollback(t *testing.T) {
	r := newGuardRig(t, DefaultGuardConfig())
	oc := r.oc
	rolled := func(st *partition.State, cost float64, failed bool) bool {
		before := oc.Stats.Rollbacks
		oc.rollbackIfNeeded(st, st.Signature(), cost, failed)
		return oc.Stats.Rollbacks > before
	}
	if rolled(r.part, 1e9, true) {
		t.Fatalf("rollback fired with no best-known design")
	}
	oc.observeBest(r.repl, 10)
	if e := oc.best[oc.curFreqKey]; e.cost != 10 || !e.st.SameLayout(r.repl) {
		t.Fatalf("best = (%v, %v)", e.st, e.cost)
	}
	oc.observeBest(r.part, 20) // worse: must not replace
	if e := oc.best[oc.curFreqKey]; e.cost != 10 {
		t.Fatalf("worse measurement replaced the best (cost %v)", e.cost)
	}
	// Mild regression (≤ 2×) keeps the new design.
	if rolled(r.part, 19, false) {
		t.Fatalf("rollback fired below RollbackFactor")
	}
	// Hard regression and outright failure both roll back to best.
	if !rolled(r.part, 21, false) || oc.rollbacks[len(oc.rollbacks)-1].ToSig != r.repl.Signature() {
		t.Fatalf("regression past 2x best did not roll back to best")
	}
	if !rolled(r.part, 0, true) {
		t.Fatalf("failed pass did not roll back")
	}
	// The best layout itself never rolls back, however bad the reading.
	if rolled(r.repl, 1e9, true) {
		t.Fatalf("rollback fired on the best-known layout itself")
	}
	// Disabled rollback never fires.
	cfg := DefaultGuardConfig()
	cfg.RollbackFactor = 0
	oc = newGuardRig(t, cfg).oc
	oc.observeBest(r.repl, 10)
	if rolled(r.part, 1e9, true) {
		t.Fatalf("rollback fired with RollbackFactor=0")
	}
}

func TestRollbackRestoresLayoutExactly(t *testing.T) {
	r := newGuardRig(t, DefaultGuardConfig())
	r.eng.Deploy(r.part, nil) // the "regressed" layout currently deployed
	r.oc.observeBest(r.repl, 10)
	r.oc.rollbackIfNeeded(r.part, r.part.Signature(), 0, true)
	sec := r.oc.Stats.RollbackSeconds
	if sec <= 0 {
		t.Fatalf("rollback deploy charged %v seconds, want > 0", sec)
	}
	recs := r.oc.Rollbacks()
	if len(recs) != 1 {
		t.Fatalf("rollback log = %v", recs)
	}
	rec := recs[0]
	if !rec.Consistent {
		t.Fatalf("rollback self-check failed: %+v", rec)
	}
	if rec.FromSig != r.part.Signature() || rec.ToSig != r.repl.Signature() {
		t.Fatalf("rollback record signatures = %+v", rec)
	}
	if rec.Seconds != sec || rec.At != r.eng.SimNow() || r.oc.Stats.RepartitionSeconds != sec {
		t.Fatalf("rollback record accounting = %+v (sec %v, now %v, stats %+v)", rec, sec, r.eng.SimNow(), r.oc.Stats)
	}
	// Invariant: after the rollback the deployed layout equals best-known
	// bit-for-bit, table by table.
	for _, ts := range r.sp.Tables {
		if got := r.eng.CurrentDesign(ts.Name); !got.Replicated {
			t.Fatalf("table %q deployed as %+v after rollback to replicate-all", ts.Name, got)
		}
	}
}
